package interp

// Context serialization and the segment-boundary stop.
//
// Persisted trace checkpoint frames store every vCPU context so
// an offline replay can resume mid-trace. Two pieces of state beyond the
// frames matter for that:
//
//   - Instrs, the count of *completed* instructions, pins the thread's exact
//     position in its deterministic instruction stream. A context is always
//     captured while the thread is parked inside a hook, where the current
//     instruction has been fetched but not executed (it re-executes on
//     resume), so GetContext records instrs-1 and SetContext restores it;
//     the re-fetch on resume then reproduces the recording-side count.
//   - A boundary (SetBoundary) arms the CPU to stop exactly when the next
//     fetch would exceed a target completed-instruction count. Replaying a
//     trace segment stops every thread at the instruction position the next
//     recorded checkpoint captured, which is what makes the segment's end
//     memory image byte-comparable against that checkpoint.

import (
	"encoding/binary"
	"fmt"
)

// SetBoundary arms the stop-at-instruction target: Run returns the result of
// OnBoundary as soon as executing one more instruction would push the
// completed count past n. Call only while the CPU is parked.
func (c *CPU) SetBoundary(n uint64) {
	c.boundary = n
	c.boundaryArmed = true
}

// AppendContext serializes a context. The encoding is canonical and
// self-delimiting; DecodeContext inverts it.
func AppendContext(b []byte, ctx *Context) []byte {
	b = binary.AppendUvarint(b, ctx.Instrs)
	// SincePoll is signed (-1 when the thread parked at a just-reset poll);
	// zigzag-map it.
	b = binary.AppendUvarint(b, uint64((int64(ctx.SincePoll)<<1)^(int64(ctx.SincePoll)>>63)))
	b = binary.AppendUvarint(b, ctx.SP)
	b = binary.AppendUvarint(b, ctx.Ret)
	b = binary.AppendUvarint(b, uint64(len(ctx.Frames)))
	for i := range ctx.Frames {
		fr := &ctx.Frames[i]
		b = binary.AppendUvarint(b, uint64(fr.Fn))
		b = binary.AppendUvarint(b, uint64(fr.PC))
		b = binary.AppendUvarint(b, fr.FP)
		b = binary.AppendUvarint(b, uint64(uint32(fr.RetReg)))
		b = binary.AppendUvarint(b, uint64(len(fr.Regs)))
		for _, r := range fr.Regs {
			b = binary.AppendUvarint(b, r)
		}
	}
	return b
}

// DecodeContext decodes a context serialized by AppendContext, returning the
// unconsumed remainder of b.
func DecodeContext(b []byte) (*Context, []byte, error) {
	u := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("interp: truncated context")
		}
		b = b[n:]
		return v, nil
	}
	ctx := &Context{}
	var err error
	if ctx.Instrs, err = u(); err != nil {
		return nil, nil, err
	}
	sp, err := u()
	if err != nil {
		return nil, nil, err
	}
	ctx.SincePoll = int(int64(sp>>1) ^ -int64(sp&1))
	if ctx.SP, err = u(); err != nil {
		return nil, nil, err
	}
	if ctx.Ret, err = u(); err != nil {
		return nil, nil, err
	}
	nf, err := u()
	if err != nil {
		return nil, nil, err
	}
	// Every frame occupies at least 5 bytes; bound the allocation by what the
	// buffer can actually hold.
	if nf > uint64(len(b)/5)+1 {
		return nil, nil, fmt.Errorf("interp: implausible frame count %d in context", nf)
	}
	ctx.Frames = make([]Frame, nf)
	for i := range ctx.Frames {
		fr := &ctx.Frames[i]
		fn, err := u()
		if err != nil {
			return nil, nil, err
		}
		pc, err := u()
		if err != nil {
			return nil, nil, err
		}
		fp, err := u()
		if err != nil {
			return nil, nil, err
		}
		ret, err := u()
		if err != nil {
			return nil, nil, err
		}
		nr, err := u()
		if err != nil {
			return nil, nil, err
		}
		if nr > uint64(len(b))+1 {
			return nil, nil, fmt.Errorf("interp: implausible register count %d in context", nr)
		}
		fr.Fn, fr.PC, fr.FP, fr.RetReg = int(fn), int(pc), fp, int32(uint32(ret))
		fr.Regs = make([]uint64, nr)
		for j := range fr.Regs {
			if fr.Regs[j], err = u(); err != nil {
				return nil, nil, err
			}
		}
	}
	return ctx, b, nil
}
