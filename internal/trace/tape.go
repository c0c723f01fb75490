package trace

import "encoding/binary"

// A Tape is a recorded stretch of the instruction stream, kept in the
// compact form functional warming reads: per instruction its PC, class,
// memory or return address, taken flag and (for taken control) target.
// Dependencies and redundancy identities are dropped. Sampled
// simulation records each region group's warming window once and
// replays it against every design row, so the generator walk is paid
// once per workload instead of once per row.
//
// The encoding is one kind byte per instruction plus an operand stream
// of uvarints:
//
//   - the PC is implicit (previous PC + 4) except at the start of a
//     sequential run, whose PC is an operand;
//   - a data address is stored as (Addr-DataBase)/8 when it is an
//     8-byte-aligned data-segment address, raw otherwise;
//   - a call's return address is implicit when it is PC + 4 (the
//     fall-through block) and raw otherwise (the call from the
//     program's last block returns to block 0);
//   - a taken control instruction's target is the next instruction's
//     PC, so only the tape's last instruction stores its target.
//
// Operands appear in stream order: an instruction's run-start PC, then
// its address. A Tape is immutable once recorded and may be replayed
// from any number of goroutines at once.
type Tape struct {
	kinds      []byte
	operands   []byte
	lastTarget uint64
}

// Kind-byte layout: the low four bits hold the Class.
const (
	kindClassMask byte = 0x0f
	kindTaken     byte = 1 << 4 // control instruction was taken
	kindNewRun    byte = 1 << 5 // PC is an operand, not previous PC + 4
	kindRawAddr   byte = 1 << 6 // Addr is a raw operand, not the implicit form
)

// Record consumes the next n instructions of gen into a tape. The
// generator is left exactly where n Next calls would leave it.
func Record(gen *Generator, n int64) *Tape {
	n = max(n, 0)
	t := &Tape{kinds: make([]byte, 0, n)}
	ops := make([]byte, 0, n)
	var prevPC uint64
	for i := int64(0); i < n; i++ {
		in := gen.Next()
		k := byte(in.Class)
		if in.Taken {
			k |= kindTaken
		}
		if i == 0 || in.PC != prevPC+4 {
			k |= kindNewRun
			ops = binary.AppendUvarint(ops, in.PC)
		}
		switch {
		case in.Class.IsMem():
			if off := in.Addr - DataBase; in.Addr >= DataBase && off&7 == 0 {
				ops = binary.AppendUvarint(ops, off>>3)
			} else {
				k |= kindRawAddr
				ops = binary.AppendUvarint(ops, in.Addr)
			}
		case in.Class == Call && in.Addr != in.PC+4:
			k |= kindRawAddr
			ops = binary.AppendUvarint(ops, in.Addr)
		}
		t.kinds = append(t.kinds, k)
		t.lastTarget = in.Target
		prevPC = in.PC
	}
	// The operand stream's final size is only known now; trim the
	// growth slack so a long-lived tape holds only its bytes.
	t.operands = append([]byte(nil), ops...)
	return t
}

// Len returns the number of recorded instructions.
func (t *Tape) Len() int64 { return int64(len(t.kinds)) }

// Bytes returns the tape's encoded size.
func (t *Tape) Bytes() int { return len(t.kinds) + len(t.operands) }

// Reader returns a cursor positioned at the tape's first instruction.
func (t *Tape) Reader() TapeReader {
	r := TapeReader{t: t}
	if len(t.kinds) > 0 {
		r.nextPC = r.uvarint()
	}
	return r
}

// TapeReader decodes a tape front to back. Each reader is owned by one
// goroutine; the tape it reads is shared.
type TapeReader struct {
	t      *Tape
	i      int
	off    int
	nextPC uint64
}

// More reports whether instructions remain.
func (r *TapeReader) More() bool { return r.i < len(r.t.kinds) }

// Next decodes the next instruction into in: PC, Class, Addr (memory
// address or call return address), Taken and Target as recorded, the
// dependency distances and CompID zero. It fills the caller's Instr
// rather than returning one, which keeps the 48-byte struct copy off
// the replay loop. Call it only while More.
//
//pbcheck:hotpath
func (r *TapeReader) Next(in *Instr) {
	k := r.t.kinds[r.i]
	r.i++
	*in = Instr{PC: r.nextPC, Class: Class(k & kindClassMask), Taken: k&kindTaken != 0}
	switch {
	case k&kindRawAddr != 0:
		in.Addr = r.uvarint()
	case in.Class.IsMem():
		in.Addr = DataBase + r.uvarint()<<3
	case in.Class == Call:
		in.Addr = in.PC + 4
	}
	// The next instruction's PC is read ahead: it is the target of a
	// taken control instruction.
	switch {
	case r.i == len(r.t.kinds):
		r.nextPC = r.t.lastTarget
	case r.t.kinds[r.i]&kindNewRun != 0:
		r.nextPC = r.uvarint()
	default:
		r.nextPC = in.PC + 4
	}
	if in.Taken {
		in.Target = r.nextPC
	}
}

// uvarint decodes the next operand. Record wrote every operand with
// binary.AppendUvarint, so the stream is well formed by construction;
// the decode is written out to keep the hot path inside the module.
//
//pbcheck:hotpath
func (r *TapeReader) uvarint() uint64 {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b := r.t.operands[r.off]
		r.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
}
