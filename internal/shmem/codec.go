package shmem

import (
	"fmt"
	"math/bits"
)

// BitsFor returns the minimum number of bits needed to represent the values
// 0..count-1.  BitsFor(1) is 1 (a field of width zero would be degenerate).
func BitsFor(count int) uint {
	if count <= 2 {
		return 1
	}
	return uint(bits.Len(uint(count - 1)))
}

// TripleCodec packs the (value, pid, seq) triples stored in register X of
// the paper's Figure 4 algorithm (and in the CAS object of the
// announcement-based constant-time LL/SC).  A distinguished bottom word
// (all zeros) encodes the initial (⊥,⊥,⊥) triple.
//
// Layout, from most to least significant:
//
//	[present:1][value:valueBits][pid:pidBits][seq:seqBits]
//
// The announcement pairs (pid, seq) stored in the array A share the low
// pidBits+seqBits of the layout plus the present bit, so Pair(x) == Pair(y)
// exactly when x and y carry the same (pid, seq) and the same ⊥-ness.
type TripleCodec struct {
	valueBits uint
	pidBits   uint
	seqBits   uint
	n         int
	seqVals   int

	// Precomputed layout constants.  The codec sits on every shared step of
	// the Figure 4 register and the constant-time LL/SC, so the masks are
	// derived once here instead of re-shifted per operation, and the cold
	// range panics live out of line — this keeps Encode/Pair/DecodePair
	// cheap enough for the compiler to inline into the devirtualized hot
	// paths.
	vShift   uint // pidBits + seqBits
	present  Word // the ⊥-discriminating bit
	maxValue Word // (1 << valueBits) - 1
	pidMask  Word // (1 << pidBits) - 1
	seqMask  Word // (1 << seqBits) - 1
	pairMask Word // present | pid | seq fields
}

// NewTripleCodec builds a codec for n processes, valueBits-bit values, and
// sequence numbers in {0, ..., seqVals-1}.  It returns an error if the
// triple does not fit in a 64-bit word.
func NewTripleCodec(n int, valueBits uint, seqVals int) (TripleCodec, error) {
	if n < 1 {
		return TripleCodec{}, fmt.Errorf("shmem: triple codec needs n >= 1, got %d", n)
	}
	if valueBits < 1 {
		return TripleCodec{}, fmt.Errorf("shmem: triple codec needs valueBits >= 1, got %d", valueBits)
	}
	if seqVals < 1 {
		return TripleCodec{}, fmt.Errorf("shmem: triple codec needs seqVals >= 1, got %d", seqVals)
	}
	c := TripleCodec{
		valueBits: valueBits,
		pidBits:   BitsFor(n),
		seqBits:   BitsFor(seqVals),
		n:         n,
		seqVals:   seqVals,
	}
	if total := 1 + c.valueBits + c.pidBits + c.seqBits; total > 64 {
		return TripleCodec{}, fmt.Errorf("shmem: triple (1+%d+%d+%d = %d bits) exceeds 64-bit word",
			c.valueBits, c.pidBits, c.seqBits, total)
	}
	c.vShift = c.pidBits + c.seqBits
	c.present = Word(1) << (c.valueBits + c.vShift)
	c.maxValue = Word(1)<<c.valueBits - 1
	c.pidMask = Word(1)<<c.pidBits - 1
	c.seqMask = Word(1)<<c.seqBits - 1
	c.pairMask = c.present | (Word(1)<<c.vShift - 1)
	return c, nil
}

// Bits returns the width of the packed triple in bits, the paper's
// "b + 2 log n + O(1)" register size.
func (c TripleCodec) Bits() int { return int(1 + c.valueBits + c.pidBits + c.seqBits) }

// SeqVals returns the size of the sequence-number domain.
func (c TripleCodec) SeqVals() int { return c.seqVals }

// MaxValue returns the largest encodable value.
func (c TripleCodec) MaxValue() Word { return c.maxValue }

// Encode packs (v, pid, seq).  It panics if any field is out of range;
// callers are responsible for staying inside the bounded domains they
// declared, exactly as the paper's algorithms are.  The range check is one
// merged branch and the panic rendering is out of line, so Encode inlines
// into the hot paths.
func (c TripleCodec) Encode(v Word, pid, seq int) Word {
	if v > c.maxValue || uint(pid) >= uint(c.n) || uint(seq) >= uint(c.seqVals) {
		c.encodePanic(v, pid, seq)
	}
	return c.present | v<<c.vShift | Word(pid)<<c.seqBits | Word(seq)
}

// CheckValue panics unless v fits the value domain.  Hot paths call it only
// from their own cold overflow branch (they compare against a bound copy of
// MaxValue first) and pack the triple themselves from the layout accessors
// below — even an inlined codec method materializes a receiver copy, which
// is exactly the cost the devirtualized paths exist to avoid.
func (c TripleCodec) CheckValue(v Word) {
	if v > c.maxValue {
		c.valuePanic(v)
	}
}

// valuePanic reports a value-domain overflow out of line.
//
//go:noinline
func (c TripleCodec) valuePanic(v Word) {
	panic(fmt.Sprintf("shmem: value %d exceeds %d-bit domain", v, c.valueBits))
}

// encodePanic reports which Encode argument was out of range.
//
//go:noinline
func (c TripleCodec) encodePanic(v Word, pid, seq int) {
	if v > c.maxValue {
		panic(fmt.Sprintf("shmem: value %d exceeds %d-bit domain", v, c.valueBits))
	}
	if pid < 0 || pid >= c.n {
		panic(fmt.Sprintf("shmem: pid %d out of range [0,%d)", pid, c.n))
	}
	panic(fmt.Sprintf("shmem: seq %d out of range [0,%d)", seq, c.seqVals))
}

// Bottom returns the word encoding (⊥,⊥,⊥).
func (c TripleCodec) Bottom() Word { return 0 }

// IsBottom reports whether w encodes (⊥,⊥,⊥).
func (c TripleCodec) IsBottom(w Word) bool { return w&c.present == 0 }

// Decode unpacks a non-bottom triple.
func (c TripleCodec) Decode(w Word) (v Word, pid, seq int) {
	v = (w >> c.vShift) & c.maxValue
	pid = int((w >> c.seqBits) & c.pidMask)
	seq = int(w & c.seqMask)
	return v, pid, seq
}

// Value returns the value field of a non-bottom triple.
func (c TripleCodec) Value(w Word) Word {
	return (w >> c.vShift) & c.maxValue
}

// Pair projects a triple word onto its (present, pid, seq) announcement
// pair, dropping the value field.  Pair(Bottom()) == Bottom().
func (c TripleCodec) Pair(w Word) Word { return w & c.pairMask }

// EncodePair packs an announcement pair (pid, seq) directly.
func (c TripleCodec) EncodePair(pid, seq int) Word {
	return c.Pair(c.Encode(0, pid, seq))
}

// DecodePair unpacks a non-bottom announcement pair.
func (c TripleCodec) DecodePair(w Word) (pid, seq int) {
	pid = int((w >> c.seqBits) & c.pidMask)
	seq = int(w & c.seqMask)
	return pid, seq
}

// Layout accessors.  Hot paths (getseq.Picker's announce scan) bind these
// constants into their per-process state once, at Handle() time: even an
// inlined value-receiver method materializes a copy of the whole codec per
// call, which costs more than the masked arithmetic it guards.

// PresentMask returns the ⊥-discriminating bit: w is bottom iff w&mask == 0.
func (c TripleCodec) PresentMask() Word { return c.present }

// PidMask returns the mask of the shifted-down pid field.
func (c TripleCodec) PidMask() Word { return c.pidMask }

// SeqBits returns the width of the seq field (the pid field's shift).
func (c TripleCodec) SeqBits() uint { return c.seqBits }

// SeqMask returns the mask of the seq field.
func (c TripleCodec) SeqMask() Word { return c.seqMask }

// BoundTriple is a TripleCodec's layout bound to one process: the five
// constants a devirtualized handle needs per operation, packaged once so
// core.RegisterBased and llsc.ConstantTime share a single definition of the
// fast-path encode, pair projection, and value extraction.  Its methods
// take pointer receivers and handles embed it by value, so every call
// inlines to raw word arithmetic on the handle's own fields — no codec
// copy, no indirection.
type BoundTriple struct {
	encBase  Word // present | pid field: OR in value and seq to encode
	vShift   uint
	maxValue Word
	pairMask Word
	present  Word
}

// Bind projects the codec's layout onto process pid.
func (c TripleCodec) Bind(pid int) BoundTriple {
	return BoundTriple{
		encBase:  c.present | Word(pid)<<c.seqBits,
		vShift:   c.vShift,
		maxValue: c.maxValue,
		pairMask: c.pairMask,
		present:  c.present,
	}
}

// Encode packs (v, seq) for the bound process.  The caller guarantees the
// ranges: v vetted against MaxValue (CheckValue renders the panic), seq
// drawn from the GetSeq recycler.
func (b *BoundTriple) Encode(v Word, seq int) Word {
	return b.encBase | v<<b.vShift | Word(seq)
}

// Pair projects a triple word onto its announcement pair.
func (b *BoundTriple) Pair(w Word) Word { return w & b.pairMask }

// Value maps a stored word to the value it represents, with ⊥ going to
// initial.
func (b *BoundTriple) Value(w, initial Word) Word {
	if w&b.present == 0 {
		return initial
	}
	return w >> b.vShift & b.maxValue
}

// MaxValue returns the largest encodable value, for the hot paths' own
// cold-branch overflow check.
func (b *BoundTriple) MaxValue() Word { return b.maxValue }

// MaskCodec packs the (value, bitmask) pairs stored in the CAS object X of
// the paper's Figure 3 algorithm: an n-bit string with one bit per process,
// and the object's value above it.
//
// Layout: [value:valueBits][mask:n].
type MaskCodec struct {
	n         int
	valueBits uint
	maxValue  Word // (1 << valueBits) - 1
	allSet    Word // (1 << n) - 1
}

// NewMaskCodec builds a codec for n processes and valueBits-bit values.
// It returns an error if value + mask exceed a 64-bit word.
func NewMaskCodec(n int, valueBits uint) (MaskCodec, error) {
	if n < 1 {
		return MaskCodec{}, fmt.Errorf("shmem: mask codec needs n >= 1, got %d", n)
	}
	if valueBits < 1 {
		return MaskCodec{}, fmt.Errorf("shmem: mask codec needs valueBits >= 1, got %d", valueBits)
	}
	if uint(n)+valueBits > 64 {
		return MaskCodec{}, fmt.Errorf("shmem: mask pair (%d+%d bits) exceeds 64-bit word", valueBits, n)
	}
	return MaskCodec{
		n:         n,
		valueBits: valueBits,
		maxValue:  Word(1)<<valueBits - 1,
		allSet:    Word(1)<<uint(n) - 1,
	}, nil
}

// Bits returns the width of the packed pair in bits.
func (c MaskCodec) Bits() int { return int(c.valueBits) + c.n }

// MaxValue returns the largest encodable value.
func (c MaskCodec) MaxValue() Word { return c.maxValue }

// Encode packs (v, mask).  It panics if v exceeds the value domain.
func (c MaskCodec) Encode(v, mask Word) Word {
	if v > c.maxValue {
		c.valuePanic(v)
	}
	return v<<uint(c.n) | (mask & c.allSet)
}

// valuePanic reports a value-domain overflow out of line.
//
//go:noinline
func (c MaskCodec) valuePanic(v Word) {
	panic(fmt.Sprintf("shmem: value %d exceeds %d-bit domain", v, c.valueBits))
}

// Value returns the value field.
func (c MaskCodec) Value(w Word) Word { return w >> uint(c.n) }

// Mask returns the n-bit process mask.
func (c MaskCodec) Mask(w Word) Word { return w & c.allSet }

// AllSet returns the mask with every process bit set, the paper's 2^n - 1.
func (c MaskCodec) AllSet() Word { return c.allSet }

// Bit reports whether process pid's bit is set in w.
func (c MaskCodec) Bit(w Word, pid int) bool { return w>>uint(pid)&1 == 1 }

// ClearBit returns w with process pid's bit cleared (the paper's a - 2^p).
func (c MaskCodec) ClearBit(w Word, pid int) Word { return w &^ (Word(1) << uint(pid)) }

// TagCodec packs the (value, tag) pairs used by the tag-based baselines:
// the flawed bounded-tag register (tag wraps around) and the unbounded-tag
// register and LL/SC (tag modeled by a wide field).
//
// Layout: [value:valueBits][tag:tagBits].
type TagCodec struct {
	valueBits uint
	tagBits   uint
	maxValue  Word // (1 << valueBits) - 1
	tagMask   Word // (1 << tagBits) - 1
}

// NewTagCodec builds a codec with the given field widths.  It returns an
// error if the pair does not fit in a 64-bit word.
func NewTagCodec(valueBits, tagBits uint) (TagCodec, error) {
	if valueBits < 1 || tagBits < 1 {
		return TagCodec{}, fmt.Errorf("shmem: tag codec needs positive widths, got value=%d tag=%d", valueBits, tagBits)
	}
	if valueBits+tagBits > 64 {
		return TagCodec{}, fmt.Errorf("shmem: tag pair (%d+%d bits) exceeds 64-bit word", valueBits, tagBits)
	}
	return TagCodec{
		valueBits: valueBits,
		tagBits:   tagBits,
		maxValue:  Word(1)<<valueBits - 1,
		tagMask:   Word(1)<<tagBits - 1,
	}, nil
}

// Bits returns the width of the packed pair in bits.
func (c TagCodec) Bits() int { return int(c.valueBits + c.tagBits) }

// MaxValue returns the largest encodable value.
func (c TagCodec) MaxValue() Word { return c.maxValue }

// TagBits returns the tag width, the shift that takes a packed word to its
// value.
func (c TagCodec) TagBits() uint { return c.tagBits }

// TagVals returns the size of the tag domain, 2^tagBits.
func (c TagCodec) TagVals() Word { return c.tagMask + 1 }

// Encode packs (v, tag).  The tag is reduced modulo the tag domain (that is
// precisely the wraparound the bounded-tag baseline suffers from); the value
// must fit, or Encode panics.
func (c TagCodec) Encode(v, tag Word) Word {
	if v > c.maxValue {
		c.valuePanic(v)
	}
	return v<<c.tagBits | (tag & c.tagMask)
}

// valuePanic reports a value-domain overflow out of line.
//
//go:noinline
func (c TagCodec) valuePanic(v Word) {
	panic(fmt.Sprintf("shmem: value %d exceeds %d-bit domain", v, c.valueBits))
}

// Value returns the value field.
func (c TagCodec) Value(w Word) Word { return w >> c.tagBits }

// Tag returns the tag field.
func (c TagCodec) Tag(w Word) Word { return w & c.tagMask }
