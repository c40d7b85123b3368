package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/record"
)

// Reader decodes a trace stream frame by frame, validating the magic, the
// header version, and every frame's CRC. A stream that ends cleanly after
// any whole frame is valid — a recorder killed mid-run leaves a usable
// prefix — but a torn or corrupted frame, or any frame after the summary
// end marker, is an error.
type Reader struct {
	br   *bufio.Reader
	hdr  Header
	sum  *Summary
	cks  []*Checkpoint
	done bool
	// size is the total stream length when known (-1 otherwise); consumed
	// tracks logical bytes read, so a corrupt length varint cannot drive an
	// allocation larger than what the stream could still hold.
	size     int64
	consumed int64
}

// NewReader validates the magic and decodes the header frame. When r's total
// size is discoverable (an *os.File or a *bytes.Reader), frame lengths are
// bounded by the bytes actually remaining instead of only the generic cap.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{br: bufio.NewReader(r), size: -1}
	switch s := r.(type) {
	case *os.File:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			tr.size = fi.Size()
		}
	case *bytes.Reader:
		tr.size = s.Size()
	}
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(tr.br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	tr.consumed += int64(len(Magic))
	if string(magic) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	kind, payload, err := tr.readFrame()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header frame: %w", err)
	}
	if kind != frameHeader {
		return nil, fmt.Errorf("trace: first frame has kind %d, want header", kind)
	}
	if tr.hdr, err = decodeHeader(payload); err != nil {
		return nil, err
	}
	return tr, nil
}

// Header returns the decoded header.
func (r *Reader) Header() Header { return r.hdr }

// readByte reads one byte, tracking consumption.
func (r *Reader) readByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.consumed++
	}
	return b, err
}

// readUvarint is binary.ReadUvarint with consumption tracking. It never
// returns a bare io.EOF: it only runs after a frame's kind byte, so running
// out of bytes mid-varint is a torn frame, not a clean stream end — callers
// match io.EOF through wrapped errors and must not mistake one for the
// other.
func (r *Reader) readUvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b, err := r.readByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			return v | uint64(b)<<shift, nil
		}
		v |= uint64(b&0x7f) << shift
	}
	return 0, errors.New("varint overflows a 64-bit integer")
}

// readFrame reads one frame and verifies its CRC. io.EOF is returned only
// at a clean frame boundary.
func (r *Reader) readFrame() (byte, []byte, error) {
	kind, err := r.readByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, err
	}
	payload, err := r.readFrameBody()
	return kind, payload, err
}

// readFrameBody reads a frame's length, payload, and checksum — the kind
// byte has already been consumed.
func (r *Reader) readFrameBody() ([]byte, error) {
	n, err := r.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: torn frame length: %w", err)
	}
	// Bound the allocation before trusting the length: never beyond what the
	// stream can still hold (when its size is known), and never beyond the
	// generic cap. A flipped bit in the length varint must not allocate
	// gigabytes before the CRC check ever runs.
	if r.size >= 0 {
		if remaining := r.size - r.consumed; int64(n)+4 > remaining {
			return nil, fmt.Errorf("trace: implausible frame length %d with %d bytes left", n, remaining)
		}
	}
	if n > maxFramePayload {
		return nil, fmt.Errorf("trace: implausible frame length %d", n)
	}
	// Inside a frame a bare io.EOF is still a torn frame; do not let it
	// masquerade as a clean stream end through error wrapping.
	noEOF := func(err error) error {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return nil, fmt.Errorf("trace: torn frame payload: %w", noEOF(err))
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r.br, crcb[:]); err != nil {
		return nil, fmt.Errorf("trace: torn frame checksum: %w", noEOF(err))
	}
	r.consumed += int64(n) + 4
	want := uint32(crcb[0]) | uint32(crcb[1])<<8 | uint32(crcb[2])<<16 | uint32(crcb[3])<<24
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("trace: frame checksum mismatch (%#x != %#x)", got, want)
	}
	return payload, nil
}

// consumeTail polices the bytes after the summary end marker, where a
// stream carries the index frame and its 12-byte trailer. A torn or
// CRC-damaged index region is ignored (the trace salvages to its scanned
// pre-summary content), while trailing content that is not an index
// region — or content after a valid one — is corruption. The check
// applies to finite inputs only (files, byte slices); probing an
// unbounded stream (pipe, socket) would block Next on a live writer that
// holds the descriptor open after Finish.
func (r *Reader) consumeTail() error {
	if r.size < 0 {
		return nil
	}
	rem := r.size - r.consumed
	if rem == 0 {
		return nil
	}
	kind, err := r.readByte()
	if err != nil {
		return nil // unreadable tail: salvage the scanned prefix
	}
	if kind != frameIndex {
		return fmt.Errorf("trace: data after summary frame (kind %d)", kind)
	}
	if _, err := r.readFrameBody(); err != nil {
		return nil // torn or CRC-damaged index frame: salvage
	}
	rem = r.size - r.consumed
	if rem > indexTrailerLen {
		return fmt.Errorf("trace: %d trailing bytes after index frame", rem-indexTrailerLen)
	}
	if rem > 0 {
		// A short or damaged trailer still salvages; the footer open path
		// simply will not find the index.
		var tb [indexTrailerLen]byte
		if _, err := io.ReadFull(r.br, tb[:rem]); err == nil {
			r.consumed += rem
		}
	}
	return nil
}

// Next returns the next epoch, or io.EOF after the last one (whether the
// stream ended with a summary frame or a clean truncation). Checkpoint
// frames are collected transparently (Checkpoints). Use Summary afterwards
// to retrieve the end marker, if present.
func (r *Reader) Next() (*record.EpochLog, error) {
	if r.done {
		return nil, io.EOF
	}
	for {
		kind, payload, err := r.readFrame()
		if err != nil {
			if errors.Is(err, io.EOF) {
				r.done = true
				return nil, io.EOF
			}
			return nil, err
		}
		// Decompression strictly after the CRC check readFrame performed.
		if kind, payload, err = inflatePayload(kind, payload); err != nil {
			return nil, err
		}
		switch kind {
		case frameEpoch:
			return decodeEpoch(payload)
		case frameCkpt:
			ck, err := decodeCheckpoint(payload)
			if err != nil {
				return nil, err
			}
			r.cks = append(r.cks, ck)
		case frameSum:
			if r.sum, err = decodeSummary(payload); err != nil {
				return nil, err
			}
			if err := r.consumeTail(); err != nil {
				return nil, err
			}
			r.done = true
			return nil, io.EOF
		default:
			return nil, fmt.Errorf("trace: unexpected frame kind %d", kind)
		}
	}
}

// Summary returns the end marker, or nil when the stream had none (or Next
// has not yet consumed it).
func (r *Reader) Summary() *Summary { return r.sum }

// Checkpoints returns the checkpoint frames read so far (all of them once
// Next has returned io.EOF).
func (r *Reader) Checkpoints() []*Checkpoint { return r.cks }

// ReadTrace fully decodes a trace stream.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	out := &Trace{Header: tr.Header()}
	for {
		ep, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		out.Epochs = append(out.Epochs, ep)
	}
	out.Summary = tr.Summary()
	// A checkpoint frame precedes the epoch it begins; a recorder killed
	// after flushing the checkpoint but before its epoch leaves a trailing
	// checkpoint that pins nothing. Drop it — the prefix stays usable, for
	// segment replay and re-encoding alike.
	cks := tr.Checkpoints()
	for len(cks) > 0 &&
		(len(out.Epochs) == 0 || cks[len(cks)-1].Epoch() > out.Epochs[len(out.Epochs)-1].Epoch) {
		cks = cks[:len(cks)-1]
	}
	out.Checkpoints = cks
	return out, nil
}

// ReadFile decodes the trace stored at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// ReadPrefix decodes the longest clean prefix of a trace stream: whole,
// CRC-valid frames up to the first torn or corrupt one, which is treated
// as the stream's end rather than an error. This is the crash-salvage
// loader — a recorder killed by SIGKILL can leave a final partially
// written frame, and the epochs before it are still a valid recording.
// Only the magic and header must be intact. Trailing checkpoints that pin
// no epoch are dropped exactly as in ReadTrace.
func ReadPrefix(r io.Reader) (*Trace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	out := &Trace{Header: tr.Header()}
	for {
		ep, err := tr.Next()
		if err != nil {
			break // io.EOF, a torn tail, or a corrupt frame: keep the prefix
		}
		out.Epochs = append(out.Epochs, ep)
	}
	out.Summary = tr.Summary()
	cks := tr.Checkpoints()
	for len(cks) > 0 &&
		(len(out.Epochs) == 0 || cks[len(cks)-1].Epoch() > out.Epochs[len(out.Epochs)-1].Epoch) {
		cks = cks[:len(cks)-1]
	}
	out.Checkpoints = cks
	return out, nil
}
