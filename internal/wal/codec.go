package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"stableheap/internal/word"
)

// Frame layout: [u32 frameLen][u32 crc][u8 type][payload…]. frameLen counts
// the whole frame; crc covers type+payload. A record's LSN is the byte
// offset of the frame start in the conceptual infinite log.
//
// The encoder is allocation-disciplined: one body-layout function
// (encodeBody) runs twice over the same enc type, once counting bytes and
// once storing them, so Encode computes the exact frame size up front and
// fills a single allocation — there is no intermediate buffer and no way
// for the two passes to disagree. Decode is
// zero-copy: byte-slice fields of the returned record alias the frame, so
// callers that outlive their frame must copy (Manager.ReadAt hands each
// caller a private frame; Manager.Scan frames alias the buffers the log
// delivers, which it never recycles — storage.Log's ownership rule).

const frameHeader = 8 // len + crc

// Encode serializes a record into an exactly-sized framed byte slice with
// a single allocation.
func Encode(r Record) []byte {
	return AppendEncode(nil, r)
}

// AppendEncode appends the framed encoding of r to dst and returns the
// extended slice (append semantics). When dst has capacity for the frame no
// allocation happens at all — this is the zero-allocation hot path used by
// Manager.Append with pooled scratch buffers.
func AppendEncode(dst []byte, r Record) []byte {
	var sz enc
	encodeBody(&sz, r)
	total := frameHeader + sz.off
	base := len(dst)
	dst = growSlice(dst, total)
	w := enc{buf: dst[base : base+total], off: frameHeader}
	encodeBody(&w, r)
	frame := dst[base : base+total]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(total))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[frameHeader:]))
	return dst
}

// growSlice extends b by n bytes, reallocating only when capacity is short.
func growSlice(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[: len(b)+n : cap(b)]
	}
	newCap := 2*cap(b) + n
	if newCap < len(b)+n {
		newCap = len(b) + n
	}
	nb := make([]byte, len(b)+n, newCap)
	copy(nb, b)
	return nb
}

// enc drives both encoding passes with one concrete type: with buf == nil
// it only counts bytes (sizing pass); with buf set it lays them down. A
// single non-generic type keeps the hot path free of interface dispatch —
// and of the heap escapes Go's shared-shape generic stenciling would force
// on the encoder receivers.
type enc struct {
	buf []byte // nil during the sizing pass
	off int
}

func (e *enc) u8(v uint8) {
	if e.buf != nil {
		e.buf[e.off] = v
	}
	e.off++
}

func (e *enc) u64(v uint64) {
	if e.buf != nil {
		binary.LittleEndian.PutUint64(e.buf[e.off:e.off+8], v)
	}
	e.off += 8
}

func (e *enc) bytes(b []byte) {
	e.u64(uint64(len(b)))
	if e.buf != nil {
		copy(e.buf[e.off:], b)
	}
	e.off += len(b)
}

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func encodeTxHdr(e *enc, h TxHdr) {
	e.u64(uint64(h.TxID))
	e.u64(uint64(h.PrevLSN))
}

func encodeFixes(e *enc, fixes []PtrFix) {
	e.u64(uint64(len(fixes)))
	for _, f := range fixes {
		e.u64(uint64(f.Addr))
		e.u64(uint64(f.NewPtr))
	}
}

func encodeAddrs(e *enc, addrs []word.Addr) {
	e.u64(uint64(len(addrs)))
	for _, a := range addrs {
		e.u64(uint64(a))
	}
}

// encodeBody lays out the type tag and payload of r into e. It is the single
// source of truth for the record wire format: the sizing and writing passes
// are the same code, so the precomputed size is exact by construction.
func encodeBody(e *enc, r Record) {
	e.u8(uint8(r.Type()))
	switch rec := r.(type) {
	case UpdateRec:
		encodeTxHdr(e, rec.TxHdr)
		e.u64(uint64(rec.Addr))
		e.u64(uint64(rec.Obj))
		e.u8(rec.Flags)
		e.bytes(rec.Redo)
		e.bytes(rec.Undo)
	case CLRRec:
		encodeTxHdr(e, rec.TxHdr)
		e.u64(uint64(rec.Addr))
		e.u8(rec.Flags)
		e.bytes(rec.Redo)
		e.u64(uint64(rec.UndoNext))
	case AllocRec:
		encodeTxHdr(e, rec.TxHdr)
		e.u64(uint64(rec.Addr))
		e.u64(rec.Descriptor)
		e.u64(uint64(rec.SizeWords))
	case CommitRec:
		encodeTxHdr(e, rec.TxHdr)
	case EndRec:
		encodeTxHdr(e, rec.TxHdr)
	case FlipRec:
		e.u64(rec.Epoch)
		e.u64(uint64(rec.FromLo))
		e.u64(uint64(rec.FromHi))
		e.u64(uint64(rec.ToLo))
		e.u64(uint64(rec.ToHi))
		e.u64(uint64(rec.RootObjFrom))
		e.u64(uint64(rec.RootObjTo))
	case CopyRec:
		e.u64(rec.Epoch)
		e.u64(uint64(rec.From))
		e.u64(uint64(rec.To))
		e.u64(uint64(rec.SizeWords))
		e.u64(rec.Descriptor)
		e.bytes(rec.Contents)
	case ScanRec:
		e.u64(rec.Epoch)
		e.u64(uint64(rec.Page))
		e.bool(rec.Full)
		e.u64(uint64(rec.ScanPtr))
		encodeFixes(e, rec.Fixes)
	case GCEndRec:
		e.u64(rec.Epoch)
	case BaseRec:
		encodeTxHdr(e, rec.TxHdr)
		e.u64(uint64(rec.Addr))
		e.bytes(rec.Object)
	case V2SCopyRec:
		encodeAddrs(e, rec.From)
		e.u64(uint64(len(rec.Runs)))
		for _, run := range rec.Runs {
			e.u64(uint64(run.To))
			e.u64(uint64(run.Bytes))
		}
		e.bytes(rec.Object)
		encodeFixes(e, rec.Fixes)
	case SFixRec:
		e.u64(uint64(rec.Page))
		encodeFixes(e, rec.Fixes)
	case VFlipRec:
		e.u64(rec.Epoch)
		e.u64(uint64(rec.Moved))
	case EndWriteRec:
		e.u64(uint64(rec.Page))
		e.u64(uint64(rec.PageLSN))
	case CheckpointRec:
		encodeCheckpoint(e, rec)
	case LogicalRec:
		encodeTxHdr(e, rec.TxHdr)
		e.u64(uint64(rec.Addr))
		e.u64(uint64(rec.Obj))
		e.u64(rec.Delta)
	case PrepareRec:
		encodeTxHdr(e, rec.TxHdr)
	case TwoPCBeginRec:
		e.u64(rec.GID)
		encodeParticipants(e, rec.Parts)
	case TwoPCDecideRec:
		e.u64(rec.GID)
		e.bool(rec.Commit)
		encodeParticipants(e, rec.Parts)
	case TwoPCEndRec:
		e.u64(rec.GID)
	default:
		panic(fmt.Sprintf("wal: cannot encode %T", r))
	}
}

func encodeParticipants(e *enc, parts []TwoPCParticipant) {
	e.u64(uint64(len(parts)))
	for _, p := range parts {
		e.u64(uint64(p.Part))
		e.u64(uint64(p.TxID))
	}
}

// txTableLayout tags the count of a non-empty checkpoint transaction table.
// The layout before a rollback's state became its CLRs alone carried each
// entry's Aborting flag and UndoNext LSN, and wrote a bare count: Decode
// refuses such a table by name rather than misread its entries. An empty
// table is a bare 0 in both layouts, so a cleanly closed heap's checkpoint
// decodes unchanged.
const txTableLayout = 1 << 62

func encodeCheckpoint(e *enc, c CheckpointRec) {
	e.u64(uint64(len(c.Dirty)))
	for _, dp := range c.Dirty {
		e.u64(uint64(dp.Page))
		e.u64(uint64(dp.RecLSN))
	}
	n := uint64(len(c.Txs))
	if n > 0 {
		n |= txTableLayout
	}
	e.u64(n)
	for _, tx := range c.Txs {
		e.u64(uint64(tx.TxID))
		e.u64(uint64(tx.FirstLSN))
		e.u64(uint64(tx.LastLSN))
		e.bool(tx.Prepared)
		e.u64(uint64(len(tx.UTT)))
		for _, p := range tx.UTT {
			e.u64(uint64(p.At))
			e.u64(uint64(p.Orig))
			e.u64(uint64(p.Cur))
		}
	}
	e.u64(uint64(c.StableCur))
	e.u64(uint64(c.VolatileCur))
	e.u64(uint64(c.RootObj))
	e.u64(uint64(c.StableAlloc))
	e.u64(uint64(c.StableAllocHigh))
	g := c.GC
	e.bool(g.Active)
	e.u64(g.Epoch)
	e.u64(uint64(g.FlipLSN))
	e.u64(uint64(g.FromLo))
	e.u64(uint64(g.FromHi))
	e.u64(uint64(g.ToLo))
	e.u64(uint64(g.ToHi))
	e.u64(uint64(g.CopyPtr))
	e.u64(uint64(g.ScanPtr))
	e.u64(uint64(g.AllocPtr))
	e.u64(uint64(len(g.Scanned)))
	for _, s := range g.Scanned {
		e.bool(s)
	}
	encodeAddrs(e, g.LastObj)
	encodeAddrs(e, c.LS)
	encodeAddrs(e, c.SRem)
	e.u64(uint64(c.VolatileLo))
	e.u64(uint64(c.VolatileHi))
	e.u64(uint64(c.NextTx))
	e.u64(c.NextEpoch)
}

// Decode parses a framed record. It returns an error on truncation, CRC
// mismatch, an unknown type tag, a retired one (Type.Retired: a log an
// older build wrote with one is refused by name), or a checkpoint whose
// transaction table is in the retired layout.
//
// Decode reads in place: byte-slice fields of the returned record (Redo,
// Undo, Object, Contents) alias the frame rather than copying it. The frame
// must stay immutable for as long as the record is used: scanned frames are
// covered by storage.Log's ownership rule (the log never recycles a
// delivered buffer), and ReadAt frames are private copies.
func Decode(frame []byte) (Record, error) {
	if len(frame) < frameHeader+1 {
		return nil, fmt.Errorf("wal: frame too short (%d bytes)", len(frame))
	}
	n := binary.LittleEndian.Uint32(frame[0:4])
	if int(n) != len(frame) {
		return nil, fmt.Errorf("wal: frame length %d != buffer %d", n, len(frame))
	}
	crc := binary.LittleEndian.Uint32(frame[4:8])
	payload := frame[frameHeader:]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("wal: CRC mismatch")
	}
	d := decoder{buf: payload}
	t := Type(d.u8())
	if t.Retired() {
		return nil, fmt.Errorf("wal: retired record type %v", t)
	}
	var r Record
	switch t {
	case TUpdate:
		r = UpdateRec{TxHdr: d.txHdr(), Addr: word.Addr(d.u64()), Obj: word.Addr(d.u64()), Flags: d.u8(), Redo: d.bytes(), Undo: d.bytes()}
	case TCLR:
		r = CLRRec{TxHdr: d.txHdr(), Addr: word.Addr(d.u64()), Flags: d.u8(), Redo: d.bytes(), UndoNext: word.LSN(d.u64())}
	case TAlloc:
		r = AllocRec{TxHdr: d.txHdr(), Addr: word.Addr(d.u64()), Descriptor: d.u64(), SizeWords: int(d.u64())}
	case TCommit:
		r = CommitRec{TxHdr: d.txHdr()}
	case TEnd:
		r = EndRec{TxHdr: d.txHdr()}
	case TFlip:
		r = FlipRec{
			Epoch: d.u64(), FromLo: word.Addr(d.u64()), FromHi: word.Addr(d.u64()),
			ToLo: word.Addr(d.u64()), ToHi: word.Addr(d.u64()),
			RootObjFrom: word.Addr(d.u64()), RootObjTo: word.Addr(d.u64()),
		}
	case TCopy:
		r = CopyRec{Epoch: d.u64(), From: word.Addr(d.u64()), To: word.Addr(d.u64()),
			SizeWords: int(d.u64()), Descriptor: d.u64(), Contents: d.bytes()}
	case TScan:
		rec := ScanRec{Epoch: d.u64(), Page: word.PageID(d.u64()), Full: d.bool(), ScanPtr: word.Addr(d.u64())}
		rec.Fixes = d.fixes()
		r = rec
	case TGCEnd:
		r = GCEndRec{Epoch: d.u64()}
	case TBase:
		r = BaseRec{TxHdr: d.txHdr(), Addr: word.Addr(d.u64()), Object: d.bytes()}
	case TV2SCopy:
		rec, total := V2SCopyRec{From: d.addrs()}, 0
		for n := d.u64(); n > 0 && d.err == nil; n-- {
			run := MoveRun{To: word.Addr(d.u64()), Bytes: int(d.u64())}
			if run.Bytes < 0 || run.Bytes > len(d.buf) {
				d.fail()
			}
			total += run.Bytes
			rec.Runs = append(rec.Runs, run)
		}
		rec.Object, rec.Fixes = d.bytes(), d.fixes()
		if d.err == nil && total != len(rec.Object) {
			d.err = fmt.Errorf("wal: v2scopy runs cover %d bytes of a %d-byte image", total, len(rec.Object))
		}
		r = rec
	case TSFix:
		rec := SFixRec{Page: word.PageID(d.u64())}
		rec.Fixes = d.fixes()
		r = rec
	case TVFlip:
		r = VFlipRec{Epoch: d.u64(), Moved: int(d.u64())}
	case TEndWrite:
		r = EndWriteRec{Page: word.PageID(d.u64()), PageLSN: word.LSN(d.u64())}
	case TCheckpoint:
		r = d.checkpoint()
	case TLogical:
		r = LogicalRec{TxHdr: d.txHdr(), Addr: word.Addr(d.u64()), Obj: word.Addr(d.u64()), Delta: d.u64()}
	case TPrepare:
		r = PrepareRec{TxHdr: d.txHdr()}
	case TTwoPCBegin:
		r = TwoPCBeginRec{GID: d.u64(), Parts: d.participants()}
	case TTwoPCDecide:
		r = TwoPCDecideRec{GID: d.u64(), Commit: d.bool(), Parts: d.participants()}
	case TTwoPCEnd:
		r = TwoPCEndRec{GID: d.u64()}
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", t)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("wal: %v record has %d trailing bytes", t, len(d.buf)-d.off)
	}
	return r, nil
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wal: truncated record payload at offset %d", d.off)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off : d.off+8])
	d.off += 8
	return v
}

// bytes returns the length-prefixed field as a subslice of the frame
// (zero-copy; capacity clipped so appends cannot scribble on the frame).
func (d *decoder) bytes() []byte {
	n := d.u64()
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	end := d.off + int(n)
	out := d.buf[d.off:end:end]
	d.off = end
	return out
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) txHdr() TxHdr {
	return TxHdr{TxID: word.TxID(d.u64()), PrevLSN: word.LSN(d.u64())}
}

func (d *decoder) fixes() []PtrFix {
	n := d.u64()
	if d.err != nil || n > uint64(len(d.buf)-d.off)/16 {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	fixes := make([]PtrFix, 0, n)
	for i := uint64(0); i < n; i++ {
		fixes = append(fixes, PtrFix{Addr: word.Addr(d.u64()), NewPtr: word.Addr(d.u64())})
	}
	return fixes
}

func (d *decoder) addrs() []word.Addr {
	n := d.u64()
	if d.err != nil || n > uint64(len(d.buf)-d.off)/8 {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]word.Addr, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, word.Addr(d.u64()))
	}
	return out
}

func (d *decoder) participants() []TwoPCParticipant {
	n := d.u64()
	if d.err != nil || n > uint64(len(d.buf)-d.off)/16 {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]TwoPCParticipant, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, TwoPCParticipant{Part: uint32(d.u64()), TxID: word.TxID(d.u64())})
	}
	return out
}

func (d *decoder) checkpoint() CheckpointRec {
	var c CheckpointRec
	nd := d.u64()
	for i := uint64(0); i < nd && d.err == nil; i++ {
		c.Dirty = append(c.Dirty, DirtyPage{Page: word.PageID(d.u64()), RecLSN: word.LSN(d.u64())})
	}
	nt := d.u64()
	if nt != 0 {
		if nt&txTableLayout == 0 && d.err == nil {
			d.err = fmt.Errorf("wal: checkpoint lists %d transactions in the retired layout (with Aborting and UndoNext)", nt)
		}
		nt &^= txTableLayout
	}
	for i := uint64(0); i < nt && d.err == nil; i++ {
		tx := TxEntry{
			TxID:     word.TxID(d.u64()),
			FirstLSN: word.LSN(d.u64()),
			LastLSN:  word.LSN(d.u64()),
			Prepared: d.bool(),
		}
		nu := d.u64()
		for j := uint64(0); j < nu && d.err == nil; j++ {
			tx.UTT = append(tx.UTT, AddrPair{At: word.LSN(d.u64()), Orig: word.Addr(d.u64()), Cur: word.Addr(d.u64())})
		}
		c.Txs = append(c.Txs, tx)
	}
	c.StableCur = int(d.u64())
	c.VolatileCur = int(d.u64())
	c.RootObj = word.Addr(d.u64())
	c.StableAlloc = word.Addr(d.u64())
	c.StableAllocHigh = word.Addr(d.u64())
	c.GC.Active = d.bool()
	c.GC.Epoch = d.u64()
	c.GC.FlipLSN = word.LSN(d.u64())
	c.GC.FromLo = word.Addr(d.u64())
	c.GC.FromHi = word.Addr(d.u64())
	c.GC.ToLo = word.Addr(d.u64())
	c.GC.ToHi = word.Addr(d.u64())
	c.GC.CopyPtr = word.Addr(d.u64())
	c.GC.ScanPtr = word.Addr(d.u64())
	c.GC.AllocPtr = word.Addr(d.u64())
	ns := d.u64()
	if d.err == nil && ns <= uint64(len(d.buf)-d.off) {
		if ns > 0 {
			c.GC.Scanned = make([]bool, 0, ns)
			for i := uint64(0); i < ns; i++ {
				c.GC.Scanned = append(c.GC.Scanned, d.bool())
			}
		}
	} else if ns != 0 {
		d.fail()
	}
	c.GC.LastObj = d.addrs()
	c.LS = d.addrs()
	c.SRem = d.addrs()
	c.VolatileLo = word.Addr(d.u64())
	c.VolatileHi = word.Addr(d.u64())
	c.NextTx = word.TxID(d.u64())
	c.NextEpoch = d.u64()
	return c
}
