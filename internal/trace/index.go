package trace

// The trace index: a footer frame mapping every epoch and
// checkpoint frame to its byte offset, payload length, and CRC, plus the
// summary frame's location — so opening a trace for inventory (ls, job
// validation) or random access (Handle.Epochs, Handle.CheckpointAt) costs
// one footer read instead of a whole-file scan.
//
// Layout. The index is an ordinary CRC-framed frame (kind 5) written after
// the summary end marker, followed by a fixed 12-byte trailer:
//
//	trailer := indexOff:8 (LE, offset of the index frame's kind byte) "IRX3"
//
// index payload :=
//	epochCount:uv  { offDelta:uv plen:uv crc:uv seqDelta:uv events:uv }*
//	ckptCount:uv   { offDelta:uv plen:uv crc:uv epoch:uv flags:uv }*
//	sumOff:uv sumPlen:uv sumCRC:uv
//
// Offsets are delta-encoded in file order (strictly increasing); epoch
// sequence numbers likewise. Flags carry the checkpoint frame's keyframe
// bit so folding policy is known without decoding checkpoint payloads.
//
// Failure policy (the salvage contract the corrupt-trace corpus pins): a
// missing or unparseable index region — no trailer magic, torn index
// frame, flipped index CRC, or a recorder killed before Finish — degrades
// to the sequential scan path; an index that parses but lies — offsets past the
// file's data region, non-monotonic offsets, or an offset that lands on a
// frame of a different kind when fetched — is hard corruption.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// indexTrailer is the fixed-size locator after the index frame.
const (
	indexTrailerLen   = 12
	indexTrailerMagic = "IRX3"
)

// frameRef locates one frame: the file offset of its kind byte, its
// payload length, and its payload CRC.
type frameRef struct {
	off  int64
	plen int
	crc  uint32
}

// size returns the frame's total on-disk size (kind + length varint +
// payload + CRC).
func (r frameRef) size() int64 {
	return 1 + int64(uvarintLen(uint64(r.plen))) + int64(r.plen) + 4
}

// epochRef is an epoch frame plus the metadata inventory scans need.
type epochRef struct {
	frameRef
	seq    int64 // 1-based epoch sequence number
	events int64
}

// ckptRef is a checkpoint frame plus its epoch and keyframe bit.
type ckptRef struct {
	frameRef
	epoch    int64
	keyframe bool
}

// fileIndex is the random-access map of one trace file, built from the
// footer or, when the index region is missing or damaged, a one-time
// sequential scan.
type fileIndex struct {
	epochs []epochRef
	ckpts  []ckptRef
	sum    frameRef
	// complete reports whether the file ends with its summary frame.
	complete bool
	// footer reports whether the index was served by the footer frame
	// (false: built by scanning).
	footer bool
}

// events sums the indexed per-epoch event counts.
func (ix *fileIndex) events() int64 {
	var n int64
	for i := range ix.epochs {
		n += ix.epochs[i].events
	}
	return n
}

// keyframes counts checkpoints carrying the keyframe bit.
func (ix *fileIndex) keyframes() int {
	n := 0
	for i := range ix.ckpts {
		if ix.ckpts[i].keyframe {
			n++
		}
	}
	return n
}

// dropTrailingCkpts removes checkpoints past the last epoch frame — a
// recorder killed after flushing a checkpoint but before its epoch leaves
// one, and it pins nothing (mirrors ReadTrace).
func (ix *fileIndex) dropTrailingCkpts() {
	lastSeq := int64(0)
	if n := len(ix.epochs); n > 0 {
		lastSeq = ix.epochs[n-1].seq
	}
	for len(ix.ckpts) > 0 && ix.ckpts[len(ix.ckpts)-1].epoch > lastSeq {
		ix.ckpts = ix.ckpts[:len(ix.ckpts)-1]
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendIndex serializes the index frame payload.
func appendIndex(b []byte, ix *fileIndex) []byte {
	b = putUvarint(b, uint64(len(ix.epochs)))
	var prevOff, prevSeq int64
	for i := range ix.epochs {
		e := &ix.epochs[i]
		b = putUvarint(b, uint64(e.off-prevOff))
		b = putUvarint(b, uint64(e.plen))
		b = putUvarint(b, uint64(e.crc))
		b = putUvarint(b, uint64(e.seq-prevSeq))
		b = putUvarint(b, uint64(e.events))
		prevOff, prevSeq = e.off, e.seq
	}
	b = putUvarint(b, uint64(len(ix.ckpts)))
	prevOff = 0
	for i := range ix.ckpts {
		c := &ix.ckpts[i]
		b = putUvarint(b, uint64(c.off-prevOff))
		b = putUvarint(b, uint64(c.plen))
		b = putUvarint(b, uint64(c.crc))
		b = putUvarint(b, uint64(c.epoch))
		var flags uint64
		if c.keyframe {
			flags |= ckKeyframe
		}
		b = putUvarint(b, flags)
		prevOff = c.off
	}
	b = putUvarint(b, uint64(ix.sum.off))
	b = putUvarint(b, uint64(ix.sum.plen))
	b = putUvarint(b, uint64(ix.sum.crc))
	return b
}

// maxIndexedFrame caps the payload length an index entry may claim — the
// same generic bound the streaming reader applies — so a lying index can
// never drive an allocation (or a signed overflow) before validation.
const maxIndexedFrame = 1 << 30

// decodeIndex parses an index frame payload. It validates shape and
// bounds every claimed length; validateIndex checks the offsets against
// the file.
func decodeIndex(payload []byte) (*fileIndex, error) {
	d := &decoder{b: payload}
	ix := &fileIndex{complete: true, footer: true}
	ref := func(what string, i int, dOff, plen, crc uint64, prevOff int64) (frameRef, error) {
		if plen > maxIndexedFrame {
			return frameRef{}, fmt.Errorf("trace: index %s %d claims implausible payload length %d", what, i, plen)
		}
		if crc > 1<<32-1 {
			return frameRef{}, fmt.Errorf("trace: index %s %d CRC overflows 32 bits", what, i)
		}
		off := prevOff + int64(dOff)
		if off < 0 || dOff > 1<<62 {
			return frameRef{}, fmt.Errorf("trace: index %s %d offset overflows", what, i)
		}
		return frameRef{off: off, plen: int(plen), crc: uint32(crc)}, nil
	}
	nEpochs, err := d.count()
	if err != nil {
		return nil, err
	}
	ix.epochs = make([]epochRef, nEpochs)
	var prevOff, prevSeq int64
	for i := 0; i < nEpochs; i++ {
		e := &ix.epochs[i]
		dOff, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		plen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		crc, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		dSeq, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		events, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if e.frameRef, err = ref("epoch", i, dOff, plen, crc, prevOff); err != nil {
			return nil, err
		}
		e.seq = prevSeq + int64(dSeq)
		e.events = int64(events)
		prevOff, prevSeq = e.off, e.seq
	}
	nCkpts, err := d.count()
	if err != nil {
		return nil, err
	}
	ix.ckpts = make([]ckptRef, nCkpts)
	prevOff = 0
	for i := 0; i < nCkpts; i++ {
		c := &ix.ckpts[i]
		dOff, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		plen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		crc, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		epoch, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		flags, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if c.frameRef, err = ref("checkpoint", i, dOff, plen, crc, prevOff); err != nil {
			return nil, err
		}
		c.epoch = int64(epoch)
		c.keyframe = flags&ckKeyframe != 0
		prevOff = c.off
	}
	sumOff, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	sumPlen, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	sumCRC, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ix.sum, err = ref("summary", 0, sumOff, sumPlen, sumCRC, 0); err != nil {
		return nil, err
	}
	if !d.done() {
		return nil, fmt.Errorf("trace: %d trailing bytes in index frame", len(d.b)-d.off)
	}
	return ix, nil
}

// validateIndex checks a footer-served index against the file: every
// indexed frame must lie wholly inside the data region (after the magic,
// before the index frame), with strictly increasing offsets per list and
// strictly increasing epoch sequence numbers. An index that fails here
// parsed fine but lies about the file — hard corruption, never a degrade.
func validateIndex(ix *fileIndex, indexOff int64) error {
	inBounds := func(r frameRef, what string, i int) error {
		if r.off < int64(len(Magic)) || r.off+r.size() > indexOff {
			return fmt.Errorf("trace: index %s %d spans [%d,%d) outside the data region [%d,%d)",
				what, i, r.off, r.off+r.size(), len(Magic), indexOff)
		}
		return nil
	}
	var prevOff, prevSeq int64
	for i := range ix.epochs {
		e := &ix.epochs[i]
		if err := inBounds(e.frameRef, "epoch", i); err != nil {
			return err
		}
		if i > 0 && (e.off <= prevOff || e.seq <= prevSeq) {
			return fmt.Errorf("trace: index epoch %d not monotonic (off %d after %d, seq %d after %d)",
				i, e.off, prevOff, e.seq, prevSeq)
		}
		prevOff, prevSeq = e.off, e.seq
	}
	prevOff = 0
	for i := range ix.ckpts {
		c := &ix.ckpts[i]
		if err := inBounds(c.frameRef, "checkpoint", i); err != nil {
			return err
		}
		if i > 0 && c.off <= prevOff {
			return fmt.Errorf("trace: index checkpoint %d not monotonic (off %d after %d)", i, c.off, prevOff)
		}
		prevOff = c.off
	}
	if err := inBounds(ix.sum, "summary", 0); err != nil {
		return err
	}
	return nil
}

// loadFooterIndex reads and validates the footer index of the sized stream
// src. Returns (nil, nil) when no parseable index region is present — the
// degrade-to-scan signal — and a non-nil error only for an index that
// parsed and lies (hard corruption).
func loadFooterIndex(src io.ReaderAt, size int64) (*fileIndex, error) {
	if size < int64(len(Magic))+indexTrailerLen+6 {
		return nil, nil
	}
	var trailer [indexTrailerLen]byte
	if _, err := src.ReadAt(trailer[:], size-indexTrailerLen); err != nil {
		return nil, nil
	}
	if string(trailer[8:]) != indexTrailerMagic {
		return nil, nil
	}
	indexOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	frameEnd := size - indexTrailerLen
	if indexOff < int64(len(Magic)) || indexOff >= frameEnd {
		return nil, nil // trailer present but points nowhere parseable
	}
	const maxIndexFrame = 1 << 28
	if frameEnd-indexOff > maxIndexFrame {
		return nil, nil
	}
	buf := make([]byte, frameEnd-indexOff)
	if _, err := src.ReadAt(buf, indexOff); err != nil {
		return nil, nil
	}
	if buf[0] != frameIndex {
		return nil, nil
	}
	plen, w := binary.Uvarint(buf[1:])
	if w <= 0 || int64(1+w)+int64(plen)+4 != int64(len(buf)) {
		return nil, nil
	}
	payload := buf[1+w : 1+w+int(plen)]
	crc := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, nil
	}
	ix, err := decodeIndex(payload)
	if err != nil {
		return nil, nil // unparseable payload: degrade like a torn index
	}
	if err := validateIndex(ix, indexOff); err != nil {
		return nil, err
	}
	ix.dropTrailingCkpts()
	return ix, nil
}

// scanIndex builds a fileIndex by walking every frame of the stream,
// CRC-checking each — the salvage path when the index region is missing
// or damaged. Statistics come from frame-leading fields
// (peekEpochMeta/peekCheckpointMeta); payloads are never fully decoded.
func scanIndex(r io.Reader) (Header, *fileIndex, error) {
	tr, err := NewReader(r)
	if err != nil {
		return Header{}, nil, err
	}
	ix := &fileIndex{}
	for {
		off := tr.consumed
		kind, payload, err := tr.readFrame()
		if errors.Is(err, io.EOF) {
			ix.dropTrailingCkpts()
			return tr.hdr, ix, nil
		}
		if err != nil {
			return Header{}, nil, err
		}
		// The ref describes the stored (possibly compressed) payload — that
		// is what readFrameAt will fetch and checksum — while the statistics
		// peeks below need the raw bytes.
		ref := frameRef{off: off, plen: len(payload), crc: crc32.ChecksumIEEE(payload)}
		if kind, payload, err = inflatePayload(kind, payload); err != nil {
			return Header{}, nil, err
		}
		switch kind {
		case frameEpoch:
			seq, events, err := peekEpochMeta(payload)
			if err != nil {
				return Header{}, nil, err
			}
			ix.epochs = append(ix.epochs, epochRef{frameRef: ref, seq: seq, events: events})
		case frameCkpt:
			epoch, keyframe, err := peekCheckpointMeta(payload)
			if err != nil {
				return Header{}, nil, err
			}
			ix.ckpts = append(ix.ckpts, ckptRef{frameRef: ref, epoch: epoch, keyframe: keyframe})
		case frameSum:
			ix.sum = ref
			ix.complete = true
			if err := tr.consumeTail(); err != nil {
				return Header{}, nil, err
			}
			ix.dropTrailingCkpts()
			return tr.hdr, ix, nil
		default:
			return Header{}, nil, fmt.Errorf("trace: unexpected frame kind %d", kind)
		}
	}
}

// readFrameAt fetches one indexed frame by pread and verifies it against
// the index: the kind byte (ignoring the compression bit), the stored
// payload length, and the CRC (checked both against the stored frame
// checksum and the index's copy). A mismatch means the index and the file
// disagree — hard corruption. Compressed frames are inflated only after
// every check passes; the caller always receives the raw payload.
func readFrameAt(src io.ReaderAt, ref frameRef, want byte) ([]byte, error) {
	buf := make([]byte, ref.size())
	if _, err := src.ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("trace: reading indexed frame at %d: %w", ref.off, err)
	}
	if buf[0]&^frameCompressed != want {
		return nil, fmt.Errorf("trace: index points at frame kind %d at offset %d, want kind %d",
			buf[0], ref.off, want)
	}
	plen, w := binary.Uvarint(buf[1:])
	if w <= 0 || int(plen) != ref.plen {
		return nil, fmt.Errorf("trace: indexed frame at %d declares %d payload bytes, index says %d",
			ref.off, plen, ref.plen)
	}
	payload := buf[1+w : 1+w+int(plen)]
	want32 := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want32 || got != ref.crc {
		return nil, fmt.Errorf("trace: indexed frame at %d fails its checksum (%#x stored, %#x indexed, %#x computed)",
			ref.off, want32, ref.crc, got)
	}
	_, raw, err := inflatePayload(buf[0], payload)
	if err != nil {
		return nil, fmt.Errorf("trace: indexed frame at %d: %w", ref.off, err)
	}
	return raw, nil
}

// openFileIndex opens path's index: the footer when intact, the scan
// otherwise. Hard index corruption (validateIndex) propagates.
func openFileIndex(f *os.File, size int64) (Header, *fileIndex, error) {
	ix, err := loadFooterIndex(f, size)
	if err != nil {
		return Header{}, nil, err
	}
	if ix != nil {
		// One more small read: the header frame at the file's start.
		hdr, err := readHeaderFrame(f)
		if err != nil {
			return Header{}, nil, err
		}
		return hdr, ix, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return Header{}, nil, err
	}
	return scanIndex(f)
}

// locateHeaderFrame validates the magic and the header frame's framing
// and returns the payload's offset and length (no CRC verification) — the
// shared parse behind readHeaderFrame and the store's content fingerprint.
func locateHeaderFrame(src io.ReaderAt) (payloadOff int64, plen int, err error) {
	// magic + kind + a full-width length varint.
	var head [19]byte
	if _, err := src.ReadAt(head[:], 0); err != nil {
		return 0, 0, fmt.Errorf("trace: reading header frame: %w", err)
	}
	if string(head[:len(Magic)]) != Magic {
		return 0, 0, fmt.Errorf("trace: bad magic %q", head[:len(Magic)])
	}
	if head[len(Magic)] != frameHeader {
		return 0, 0, fmt.Errorf("trace: first frame has kind %d, want header", head[len(Magic)])
	}
	n, w := binary.Uvarint(head[len(Magic)+1:])
	if w <= 0 || n > 1<<20 {
		return 0, 0, fmt.Errorf("trace: malformed header frame length")
	}
	return int64(len(Magic) + 1 + w), int(n), nil
}

// readHeaderFrame reads and decodes only the header frame (magic + first
// frame) of a trace stream.
func readHeaderFrame(src io.ReaderAt) (Header, error) {
	off, plen, err := locateHeaderFrame(src)
	if err != nil {
		return Header{}, err
	}
	buf := make([]byte, plen+4)
	if _, err := src.ReadAt(buf, off); err != nil {
		return Header{}, fmt.Errorf("trace: reading header frame: %w", err)
	}
	payload := buf[:plen]
	crc := binary.LittleEndian.Uint32(buf[plen:])
	if crc32.ChecksumIEEE(payload) != crc {
		return Header{}, errors.New("trace: header frame checksum mismatch")
	}
	return decodeHeader(payload)
}
