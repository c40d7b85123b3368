package trace

// Corrupt-trace corpus: every way a stored trace can rot — truncated
// mid-frame, flipped CRC, trailing garbage, implausible frame length, and
// damaged or lying index regions — with the required behavior
// of Load (error), List (degraded entry that hides nothing), scanning
// (error), and the index failure policy (unparseable index degrades to the
// scan path; an index that lies is hard corruption) asserted for each.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/record"
)

// corpusTrace builds a small, fully valid two-epoch trace (summary, index
// frame, trailer).
func corpusTrace(t *testing.T) []byte {
	t.Helper()
	tr := &Trace{
		Header: Header{Version: Version, App: "corpus", ModuleHash: 7, EventCap: 16, VarCap: 16},
		Epochs: []*record.EpochLog{
			{
				Epoch: 1,
				Threads: []record.ThreadLog{{TID: 0, Events: []record.Event{
					{Kind: record.KMutexLock, Var: 0x1000, Pos: 0},
				}}},
				Vars: []record.VarLog{{Addr: 0x1000, Order: []int32{0}}},
			},
			{
				Epoch: 2,
				Threads: []record.ThreadLog{{TID: 0, Events: []record.Event{
					{Kind: record.KExit, Pos: -1},
				}}},
			},
		},
		Summary: &Summary{Exit: 3, Output: "1\n"},
	}
	b, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// frameSpan is one frame's location in an encoded trace.
type frameSpan struct {
	kind       byte
	start, end int
}

// frameSpans walks the frames of a well-formed encoded trace. The fixed
// trailer, when present, is excluded from the walk.
func frameSpans(t *testing.T, b []byte) []frameSpan {
	t.Helper()
	end := len(b)
	if end >= indexTrailerLen && string(b[end-4:]) == indexTrailerMagic {
		end -= indexTrailerLen
	}
	var out []frameSpan
	off := len(Magic)
	for off < end {
		kind := b[off]
		n, w := binary.Uvarint(b[off+1:])
		if w <= 0 {
			t.Fatalf("malformed corpus bytes at offset %d", off)
		}
		next := off + 1 + w + int(n) + 4
		out = append(out, frameSpan{kind: kind, start: off, end: next})
		off = next
	}
	return out
}

// firstSpan returns the first frame of the given kind.
func firstSpan(t *testing.T, spans []frameSpan, kind byte) frameSpan {
	t.Helper()
	for _, s := range spans {
		if s.kind == kind {
			return s
		}
	}
	t.Fatalf("no frame of kind %d", kind)
	return frameSpan{}
}

// corruptions returns the corpus: name -> mutated bytes. Every mutation
// damages the trace's data region, so Load, Decode, and the scan must all
// reject it.
func corruptions(t *testing.T, valid []byte) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	spans := frameSpans(t, valid)
	ep := firstSpan(t, spans, frameEpoch)

	// Truncated mid-frame: cut inside the first epoch frame's payload.
	out["truncated-mid-frame"] = append([]byte(nil), valid[:ep.start+5]...)

	// Flipped CRC: invert one bit of the first epoch frame's checksum.
	flipped := append([]byte(nil), valid...)
	flipped[ep.end-1] ^= 0x01
	out["flipped-crc"] = flipped

	// Flipped payload byte inside the epoch frame: the index (which stores
	// the original CRC) and the frame now disagree; both the scan path and
	// the indexed fetch path must reject it.
	body := append([]byte(nil), valid...)
	body[ep.start+3] ^= 0xff
	out["flipped-payload"] = body

	// Trailing garbage after the complete (index + trailer) file.
	out["trailing-garbage"] = append(append([]byte(nil), valid...), 0xde, 0xad, 0xbe, 0xef)

	// A trailing *valid* frame after the end of the file: decodes
	// frame-wise but is corruption, because nothing may follow the index
	// region.
	var epPayload []byte
	epPayload = appendEpoch(nil, &record.EpochLog{Epoch: 3, Threads: []record.ThreadLog{{TID: 0}}})
	trailing := append([]byte(nil), valid...)
	trailing = append(trailing, frameEpoch)
	trailing = binary.AppendUvarint(trailing, uint64(len(epPayload)))
	trailing = append(trailing, epPayload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32ieee(epPayload))
	out["trailing-frame"] = append(trailing, crc[:]...)

	// Truncated right after a frame's length varint: zero payload bytes
	// present where the length promises some. A bare io.EOF here must not
	// pass for a clean frame-boundary truncation.
	afterLen := append([]byte(nil), valid...)
	afterLen = append(afterLen, frameEpoch)
	afterLen = binary.AppendUvarint(afterLen, 5)
	out["truncated-after-length"] = afterLen

	// Implausible frame length: a huge length varint right after the header
	// frame. Must be rejected by the size bound before any allocation.
	hdrEnd := headerFrameEnd(t, valid)
	huge := append([]byte(nil), valid[:hdrEnd]...)
	huge = append(huge, frameEpoch)
	huge = binary.AppendUvarint(huge, 1<<40)
	huge = append(huge, 0x01, 0x02)
	out["implausible-length"] = huge

	return out
}

func crc32ieee(b []byte) uint32 {
	// mirrors the writer's framing checksum
	return crc32.ChecksumIEEE(b)
}

// headerFrameEnd returns the offset just past the header frame.
func headerFrameEnd(t *testing.T, b []byte) int {
	t.Helper()
	off := len(Magic) + 1 // magic + kind
	n, w := binary.Uvarint(b[off:])
	if w <= 0 {
		t.Fatal("malformed corpus bytes")
	}
	return off + w + int(n) + 4
}

// oldVersionTrace hand-builds the corpus trace as a pre-v4 writer laid it
// out: header and summary frames without their trailing flags varints,
// and for v3 the index footer and trailer. Everything but the version is
// well-formed, so the version is the only thing that can refuse it.
func oldVersionTrace(t *testing.T, ver int) []byte {
	t.Helper()
	tr, err := Decode(corpusTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	b := []byte(Magic)
	frame := func(kind byte, payload []byte) frameRef {
		ref := frameRef{off: int64(len(b)), plen: len(payload), crc: crc32ieee(payload)}
		b = append(b, kind)
		b = binary.AppendUvarint(b, uint64(len(payload)))
		b = append(b, payload...)
		b = binary.LittleEndian.AppendUint32(b, ref.crc)
		return ref
	}
	h := tr.Header
	hdr := putUvarint(nil, uint64(ver))
	hdr = putString(hdr, h.App)
	hdr = putUvarint(hdr, h.ModuleHash)
	hdr = putUvarint(hdr, uint64(h.EventCap))
	hdr = putUvarint(hdr, uint64(h.VarCap))
	hdr = putVarint(hdr, h.Seed)
	hdr = putUvarint(hdr, uint64(h.AppIters))
	frame(frameHeader, hdr)
	var ix fileIndex
	for _, ep := range tr.Epochs {
		ref := frame(frameEpoch, appendEpoch(nil, ep))
		ix.epochs = append(ix.epochs, epochRef{frameRef: ref, seq: ep.Epoch, events: int64(ep.EventCount())})
	}
	ix.sum = frame(frameSum, putString(putUvarint(nil, tr.Summary.Exit), tr.Summary.Output))
	if ver != 3 {
		return b
	}
	indexOff := len(b)
	frame(frameIndex, appendIndex(nil, &ix))
	b = binary.LittleEndian.AppendUint64(b, uint64(indexOff))
	return append(b, indexTrailerMagic...)
}

// TestOldTraceVersionsRefused: the store reads one format version. v1, v2
// and v3 files (and an unknown future version) are refused with the
// unsupported-version error by Decode, Store.Open, Store.Entry (as
// Entry.Err) and List — which also keeps a healthy neighbour whole.
func TestOldTraceVersionsRefused(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path("healthy"), corpusTrace(t), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "unsupported header version"
	for _, ver := range []int{1, 2, 3, Version + 1} {
		t.Run(fmt.Sprintf("v%d", ver), func(t *testing.T) {
			b := oldVersionTrace(t, ver)
			if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Decode: %v, want %q", err, want)
			}
			name := fmt.Sprintf("old-v%d", ver)
			if err := os.WriteFile(st.Path(name), b, 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.Remove(st.Path(name))
			if h, err := st.Open(name); err == nil || !strings.Contains(err.Error(), want) {
				if h != nil {
					h.Close()
				}
				t.Fatalf("Store.Open: %v, want %q", err, want)
			}
			e, err := st.Entry(name)
			if err != nil || e.Err == nil || !strings.Contains(e.Err.Error(), want) {
				t.Fatalf("Store.Entry = %+v (%v), want Err %q", e, err, want)
			}
			entries, err := st.List()
			if err != nil {
				t.Fatalf("List aborted on an old-version file: %v", err)
			}
			var sawOld, sawHealthy bool
			for _, e := range entries {
				switch e.Name {
				case name:
					sawOld = e.Err != nil && strings.Contains(e.Err.Error(), want)
				case "healthy":
					sawHealthy = e.Err == nil && e.Complete && e.Epochs == 2
				}
			}
			if !sawOld || !sawHealthy {
				t.Fatalf("List = %+v, want %s refused and healthy whole", entries, name)
			}
		})
	}
}

func TestCorruptTraceCorpus(t *testing.T) {
	valid := corpusTrace(t)
	if _, err := Decode(valid); err != nil {
		t.Fatalf("pristine corpus trace failed to decode: %v", err)
	}

	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One healthy neighbour that corruption must never hide.
	if err := os.WriteFile(st.Path("healthy"), valid, 0o644); err != nil {
		t.Fatal(err)
	}

	for name, mut := range corruptions(t, valid) {
		t.Run(name, func(t *testing.T) {
			// Decode rejects the bytes.
			if _, err := Decode(mut); err == nil {
				t.Fatal("corrupt trace decoded without error")
			}
			// Load rejects the file.
			if err := os.WriteFile(st.Path(name), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Load(name); err == nil {
				t.Fatal("Load served a corrupt trace")
			}
			// The sequential scan errors.
			if _, _, err := scanIndex(bytes.NewReader(mut)); err == nil {
				t.Fatal("scanIndex accepted a corrupt trace")
			}
			// List degrades the entry and keeps the healthy neighbour whole.
			entries, err := st.List()
			if err != nil {
				t.Fatalf("List aborted on a corrupt file: %v", err)
			}
			var sawBad, sawHealthy bool
			for _, e := range entries {
				switch e.Name {
				case name:
					sawBad = true
					if name == "flipped-payload" || name == "flipped-crc" {
						// The footer still parses (it fingerprints payloads,
						// and the summary/trailer are intact), so the
						// inventory entry stays clean; the damaged frame is
						// discovered on fetch — Load above already failed.
						break
					}
					if e.Err == nil || e.Header.App != "" {
						t.Fatalf("corrupt entry not degraded: %+v", e)
					}
				case "healthy":
					sawHealthy = true
					if e.Err != nil || e.Header.App != "corpus" || !e.Complete || e.Epochs != 2 {
						t.Fatalf("healthy entry damaged by neighbour: %+v", e)
					}
				}
			}
			if !sawBad || !sawHealthy {
				t.Fatalf("List hid entries: %+v", entries)
			}
			os.Remove(st.Path(name))
		})
	}
}

// TestV3IndexDamageDegradesToScan: a damaged index region — torn index
// frame, flipped index CRC, truncated trailer — must not cost the trace:
// it loads through the scan path with a clean Entry, just without random
// access.
func TestV3IndexDamageDegradesToScan(t *testing.T) {
	valid := corpusTrace(t)
	spans := frameSpans(t, valid)
	ix := firstSpan(t, spans, frameIndex)

	cases := map[string][]byte{}
	// Torn index frame: cut mid-payload (the trailer goes with it).
	cases["torn-index"] = append([]byte(nil), valid[:ix.start+5]...)
	// Flipped index CRC byte: frame present but fails its checksum.
	fl := append([]byte(nil), valid...)
	fl[ix.end-1] ^= 0x01
	cases["flipped-index-crc"] = fl
	// Truncated trailer: index frame intact, locator gone.
	cases["truncated-trailer"] = append([]byte(nil), valid[:len(valid)-5]...)

	for name, mut := range cases {
		t.Run(name, func(t *testing.T) {
			tr, err := Decode(mut)
			if err != nil {
				t.Fatalf("damaged index region failed to salvage: %v", err)
			}
			if len(tr.Epochs) != 2 || tr.Summary == nil {
				t.Fatalf("salvaged decode = %d epochs, summary %v", len(tr.Epochs), tr.Summary)
			}
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.Path("x"), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := st.Entry("x")
			if err != nil || e.Err != nil {
				t.Fatalf("entry degraded by index damage: %+v (%v)", e, err)
			}
			if e.Indexed || !e.Complete || e.Epochs != 2 {
				t.Fatalf("entry = %+v, want scan-served complete trace", e)
			}
			got, err := st.Load("x")
			if err != nil || len(got.Epochs) != 2 {
				t.Fatalf("Load after index damage: %v", err)
			}
		})
	}
}

// TestV3IndexLiesAreCorruption: an index that parses but lies about the
// file — offsets outside the data region, or offsets landing on frames of
// a different kind — is hard corruption, never a silent degrade.
func TestV3IndexLiesAreCorruption(t *testing.T) {
	valid := corpusTrace(t)

	// withMutatedIndex re-frames the corpus trace with a mutated index.
	withMutatedIndex := func(mutate func(*fileIndex)) []byte {
		spans := frameSpans(t, valid)
		ixSpan := firstSpan(t, spans, frameIndex)
		n, w := binary.Uvarint(valid[ixSpan.start+1:])
		payload := valid[ixSpan.start+1+w : ixSpan.start+1+w+int(n)]
		ix, err := decodeIndex(payload)
		if err != nil {
			t.Fatal(err)
		}
		mutate(ix)
		out := append([]byte(nil), valid[:ixSpan.start]...)
		newPayload := appendIndex(nil, ix)
		out = append(out, frameIndex)
		out = binary.AppendUvarint(out, uint64(len(newPayload)))
		out = append(out, newPayload...)
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32ieee(newPayload))
		out = append(out, crc[:]...)
		var trailer [indexTrailerLen]byte
		binary.LittleEndian.PutUint64(trailer[:8], uint64(ixSpan.start))
		copy(trailer[8:], indexTrailerMagic)
		return append(out, trailer[:]...)
	}

	t.Run("offset-past-eof", func(t *testing.T) {
		mut := withMutatedIndex(func(ix *fileIndex) {
			ix.epochs[1].off = int64(len(valid)) + 100
		})
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.Path("liar"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := st.Entry("liar")
		if err != nil {
			t.Fatal(err)
		}
		if e.Err == nil {
			t.Fatalf("out-of-bounds index accepted: %+v", e)
		}
		if _, err := st.Load("liar"); err == nil {
			t.Fatal("Load served a trace whose index points past EOF")
		}
	})

	t.Run("implausible-plen", func(t *testing.T) {
		// A payload length near 2^63 must neither allocate nor overflow the
		// bounds arithmetic into a panic. decodeIndex rejects it, which
		// classifies the index as unparseable — the salvage path, like a
		// torn index frame.
		mut := withMutatedIndex(func(ix *fileIndex) {
			ix.epochs[0].plen = 1 << 62
		})
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.Path("huge"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := st.Load("huge") // must not panic
		if err != nil || len(got.Epochs) != 2 {
			t.Fatalf("Load after implausible index length: %v", err)
		}
		if e, err := st.Entry("huge"); err != nil || e.Err != nil || e.Indexed {
			t.Fatalf("entry = %+v (%v), want clean scan-served entry", e, err)
		}
	})

	t.Run("kind-mismatch", func(t *testing.T) {
		spans := frameSpans(t, valid)
		sum := firstSpan(t, spans, frameSum)
		mut := withMutatedIndex(func(ix *fileIndex) {
			// Point the last epoch at the summary frame (in bounds, right
			// CRC for that frame, wrong kind).
			ix.epochs[1].off = int64(sum.start)
			ix.epochs[1].plen = sum.end - sum.start - 6 // minus kind, len byte, crc
			ix.epochs[1].crc = crc32ieee(valid[sum.start+2 : sum.end-4])
		})
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.Path("liar"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = st.Load("liar")
		if err == nil {
			t.Fatal("Load served a trace whose index mislabels frame kinds")
		}
		if !strings.Contains(err.Error(), "kind") {
			t.Fatalf("kind mismatch not surfaced as such: %v", err)
		}
	})
}

// TestImplausibleLengthDoesNotAllocate: the corrupted length must be caught
// by the remaining-size bound (file) and the generic cap (unsized reader)
// without a gigabyte allocation. The allocation bound is observable through
// the error text naming the remaining bytes.
func TestImplausibleLengthDoesNotAllocate(t *testing.T) {
	valid := corpusTrace(t)
	hdrEnd := headerFrameEnd(t, valid)
	mut := append([]byte(nil), valid[:hdrEnd]...)
	mut = append(mut, frameEpoch)
	mut = binary.AppendUvarint(mut, 512<<20) // 512 MiB claim, under the generic cap
	mut = append(mut, 0x00)

	path := filepath.Join(t.TempDir(), "big.irt")
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("half-gigabyte frame in a 100-byte file accepted")
	}

	// From a bytes.Reader the size is known too.
	if _, err := Decode(mut); err == nil {
		t.Fatal("half-gigabyte frame in a 100-byte buffer accepted")
	}
}

// sliceReader is an io.Reader over bytes without bytes.Reader's Size method:
// the reader cannot bound frame lengths by a known stream size (network or
// pipe ingestion) and must still tell torn frames from clean prefixes.
type sliceReader struct{ b []byte }

func (s *sliceReader) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

// TestTornFrameFromUnsizedStream: a stream that dies right after a frame's
// length varint is torn, not a clean prefix — even when the reader cannot
// know the stream size up front. (io.ReadFull returns a bare io.EOF when no
// payload bytes are available at all; that must not read as a clean end.)
func TestTornFrameFromUnsizedStream(t *testing.T) {
	valid := corpusTrace(t)
	hdrEnd := headerFrameEnd(t, valid)
	mut := append([]byte(nil), valid[:hdrEnd]...)
	mut = append(mut, frameEpoch)
	mut = binary.AppendUvarint(mut, 5) // promises 5 payload bytes, delivers none

	r, err := NewReader(&sliceReader{b: mut})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("torn frame from unsized stream read as clean end: %v", err)
	}

	// The same bytes cut at the frame boundary are a clean prefix.
	r2, err := NewReader(&sliceReader{b: valid[:hdrEnd]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("clean prefix misread: %v", err)
	}
}

// TestStoreLoadDetectsSameSizeRewrite: a rewrite that preserves file size
// (and possibly lands within mtime granularity) must not be served from the
// decode cache — the content mark must differ even though, on an indexed
// file, the final bytes (the trailer) are content-independent.
func TestStoreLoadDetectsSameSizeRewrite(t *testing.T) {
	st, err := OpenStore(filepath.Join(t.TempDir(), "traces"))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(exit uint64) *Trace {
		return &Trace{
			Header: Header{App: "rw", ModuleHash: 7},
			Epochs: []*record.EpochLog{{
				Epoch: 1,
				Threads: []record.ThreadLog{{TID: 0, Events: []record.Event{
					{Kind: record.KExit, Ret: exit, Pos: -1},
				}}},
			}},
			Summary: &Summary{Exit: exit},
		}
	}
	b1, err := Encode(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Encode(mk(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) != len(b2) {
		t.Fatalf("rewrite does not preserve size (%d vs %d); fix the fixture", len(b1), len(b2))
	}

	if err := os.WriteFile(st.Path("rw"), b1, 0o644); err != nil {
		t.Fatal(err)
	}
	fi1, err := os.Stat(st.Path("rw"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Load("rw")
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary.Exit != 1 || got.Epochs[0].Threads[0].Events[0].Ret != 1 {
		t.Fatalf("first load exit = %d", got.Summary.Exit)
	}

	// Same-size rewrite; force the stat to look unchanged by restoring the
	// original mtime (the pathological window the content check closes).
	if err := os.WriteFile(st.Path("rw"), b2, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(st.Path("rw"), fi1.ModTime(), fi1.ModTime()); err != nil {
		t.Fatal(err)
	}
	got2, err := st.Load("rw")
	if err != nil {
		t.Fatal(err)
	}
	if got2.Summary.Exit != 2 {
		t.Fatalf("stale summary served after same-size rewrite (exit = %d, want 2)", got2.Summary.Exit)
	}
	if got2.Epochs[0].Threads[0].Events[0].Ret != 2 {
		t.Fatal("stale cached epoch frame served after same-size rewrite")
	}
}

// TestSegmentJobValidation: malformed segment schedules are refused before
// any replay work.
func TestSegmentJobValidation(t *testing.T) {
	valid := corpusTrace(t)
	tr, err := Decode(valid)
	if err != nil {
		t.Fatal(err)
	}
	// No module.
	if _, _, err := ReplaySegments(Job{Name: "x", Handle: OpenTrace(tr)}, 1); err == nil {
		t.Fatal("job without module accepted")
	}
}

// blockingTail returns its bytes, then fails loudly if read again — the
// shape of a live pipe whose writer holds the descriptor open: a reader
// that probes past the summary frame would surface errProbe (a regression
// that, on a real pipe, is a hang).
type blockingTail struct {
	b      []byte
	probed bool
}

var errProbe = errors.New("probe past end marker")

func (s *blockingTail) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		s.probed = true
		return 0, errProbe
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

// TestStreamingSummaryDoesNotProbe: on an unbounded stream, Next returns
// io.EOF at the summary frame without reading past it.
func TestStreamingSummaryDoesNotProbe(t *testing.T) {
	valid := corpusTrace(t)
	src := &blockingTail{b: valid}
	r, err := NewReader(src)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		n++
	}
	if src.probed {
		t.Fatal("reader probed past the summary frame on a streaming input")
	}
	if n != 2 || r.Summary() == nil {
		t.Fatalf("streamed %d epochs, summary %v", n, r.Summary())
	}
}
