package vet

// obsconst: every metric the repo registers must be declared in the
// internal/obs catalog and pass the shared static lint rules at compile
// time. At each registry constructor call site — New{Counter,Histogram}{,Vec}
// and the collector forms New{Counter,Gauge}{,Vec}Func — the analyzer
// requires
//
//   - the name argument to be a compile-time string constant,
//   - that constant to be one of the exported M* catalog constants the obs
//     package declares (internal/obs/metrics.go — the single source of
//     truth for the exposition surface),
//   - the name to pass obs.LintName for the instrument kind, and the label
//     argument of Vec constructors to be a constant passing obs.LintLabel.
//
// The rules come from internal/obs/rules.go — the same implementation the
// registry enforces at runtime and LintProm applies to expositions — so the
// static lint can never drift from the runtime lint. Test files are exempt
// (tests register scratch metrics on throwaway registries).

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/obs"
)

// registryCtors maps constructor name to (instrument kind, label-arg index;
// -1 when the constructor takes no label).
var registryCtors = map[string]struct {
	kind     string
	labelArg int
}{
	"NewCounter":        {obs.KindCounter, -1},
	"NewCounterFunc":    {obs.KindCounter, -1},
	"NewCounterVec":     {obs.KindCounter, 2},
	"NewCounterVecFunc": {obs.KindCounter, 2},
	"NewGaugeFunc":      {obs.KindGauge, -1},
	"NewGaugeVecFunc":   {obs.KindGauge, 2},
	"NewHistogram":      {obs.KindHistogram, -1},
	"NewHistogramVec":   {obs.KindHistogram, 2},
}

// NewObsConst returns the metric-catalog analyzer. obsPkgSuffix identifies
// the catalog package by import-path suffix (the real internal/obs in the
// repo, a stand-in under vettest fixtures).
func NewObsConst(obsPkgSuffix string) *Analyzer {
	a := &Analyzer{
		Name: "obsconst",
		Doc:  "metric registrations must use compile-time constant names from the internal/obs catalog, lint-clean",
	}
	a.Run = func(pass *Pass) error {
		runObsConst(pass, obsPkgSuffix)
		return nil
	}
	return a
}

func runObsConst(pass *Pass, obsPkgSuffix string) {
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || pass.IsTestFile(call.Pos()) {
			return true
		}
		f := calleeFunc(pass.Info, call)
		if f == nil || !strings.HasSuffix(funcPkgPath(f), obsPkgSuffix) {
			return true
		}
		recv := recvNamed(f)
		if recv == nil || recv.Obj().Name() != "Registry" {
			return true
		}
		ctor, ok := registryCtors[f.Name()]
		if !ok || len(call.Args) == 0 {
			return true
		}

		name, isConst := constStringArg(pass, call.Args[0])
		if !isConst {
			pass.Reportf(call.Args[0].Pos(), "metric name passed to %s must be a compile-time string constant from the internal/obs catalog", f.Name())
			return true
		}
		if !inCatalog(f.Pkg(), name) {
			pass.Reportf(call.Args[0].Pos(), "metric %q is not declared in the internal/obs catalog (add an M* constant in internal/obs/metrics.go and register through it)", name)
		}
		for _, prob := range obs.LintName(ctor.kind, name) {
			pass.Reportf(call.Args[0].Pos(), "metric name fails the shared obs lint rules: %s", prob)
		}

		if ctor.labelArg >= 0 && ctor.labelArg < len(call.Args) {
			label, isConst := constStringArg(pass, call.Args[ctor.labelArg])
			if !isConst {
				pass.Reportf(call.Args[ctor.labelArg].Pos(), "label name passed to %s must be a compile-time string constant", f.Name())
				return true
			}
			for _, prob := range obs.LintLabel(label) {
				pass.Reportf(call.Args[ctor.labelArg].Pos(), "label name fails the shared obs lint rules: %s", prob)
			}
		}
		return true
	})
}

// constStringArg resolves an argument to its compile-time string value.
func constStringArg(pass *Pass, arg ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// inCatalog reports whether value is the value of an exported M* string
// constant in the obs package — membership in the metric catalog.
func inCatalog(obsPkg *types.Package, value string) bool {
	if obsPkg == nil {
		return false
	}
	scope := obsPkg.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "M") {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			continue
		}
		if constant.StringVal(c.Val()) == value {
			return true
		}
	}
	return false
}
