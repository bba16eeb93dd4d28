package main

import (
	"encoding/binary"
	"fmt"
)

// Every tuple the benchmark pushes is derived from its key: the first 8
// bytes hold the key, every further 8-byte word holds word(key). A target
// can therefore check exactly-once delivery and the payload of each tuple
// it consumes without any shared state with the sources.

// keyspace maps a (flow, source, index) triple to a seed-scrambled tuple
// key and back. The scramble is an XOR with a seed-derived mask, so a new
// seed changes every key (and with it the routing of a shuffle) but never
// the number of tuples.
type keyspace struct{ mask uint64 }

func newKeyspace(seed int64) keyspace {
	return keyspace{mask: splitmix64(uint64(seed))}
}

const (
	idxBits    = 40
	sourceBits = 8
)

func (k keyspace) key(flow, source, idx int) int64 {
	return int64(k.mask ^ (uint64(flow)<<(idxBits+sourceBits) | uint64(source)<<idxBits | uint64(idx)))
}

func (k keyspace) decode(key int64) (flow, source, idx int) {
	v := uint64(key) ^ k.mask
	return int(v >> (idxBits + sourceBits)), int(v >> idxBits & (1<<sourceBits - 1)), int(v & (1<<idxBits - 1))
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// word is the payload word every 8-byte slot after the key carries.
func word(key int64) uint64 {
	return uint64(key)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
}

// fillTuple writes key and its payload into tup (len(tup) is a multiple
// of 8).
func fillTuple(tup []byte, key int64) {
	binary.LittleEndian.PutUint64(tup, uint64(key))
	w := word(key)
	for off := 8; off+8 <= len(tup); off += 8 {
		binary.LittleEndian.PutUint64(tup[off:], w)
	}
}

// payloadOK reports whether tup carries the payload its key dictates.
func payloadOK(tup []byte) bool {
	w := word(tupleKey(tup))
	for off := 8; off+8 <= len(tup); off += 8 {
		if binary.LittleEndian.Uint64(tup[off:]) != w {
			return false
		}
	}
	return true
}

func tupleKey(tup []byte) int64 { return int64(binary.LittleEndian.Uint64(tup)) }

// fault is a deliberate verification-path fault, used by the benchmark's
// own tests to prove that a lost or corrupt tuple fails the run.
type fault int

const (
	faultNone fault = iota
	faultDrop
	faultCorrupt
)

// checker verifies the tuples one flow delivers: each expected key
// exactly once, with the right payload. It is owned by one goroutine or
// by the (single-threaded) sim kernel.
type checker struct {
	ks        keyspace
	flow      int
	sources   int
	perSource int
	seen      []uint64

	delivered int64 // tuples handed to check
	distinct  int64
	dup       int64
	corrupt   int64
	foreign   int64 // keys outside the flow's key range

	inject  fault
	scratch []byte
}

func newChecker(ks keyspace, flow, sources, perSource int) *checker {
	return &checker{ks: ks, flow: flow, sources: sources, perSource: perSource,
		seen: make([]uint64, (sources*perSource+63)/64)}
}

// check verifies one delivered tuple.
func (c *checker) check(tup []byte) {
	c.delivered++
	if c.inject != faultNone && c.delivered == 1 {
		f := c.inject
		c.inject = faultNone
		if f == faultDrop {
			return
		}
		c.scratch = append(c.scratch[:0], tup...)
		c.scratch[len(c.scratch)-1] ^= 0xFF
		tup = c.scratch
	}
	key := tupleKey(tup)
	flow, src, idx := c.ks.decode(key)
	if flow != c.flow || src >= c.sources || idx >= c.perSource {
		c.foreign++
		return
	}
	if !payloadOK(tup) {
		c.corrupt++
		return
	}
	bit := src*c.perSource + idx
	if c.seen[bit/64]&(1<<(bit%64)) != 0 {
		c.dup++
		return
	}
	c.seen[bit/64] |= 1 << (bit % 64)
	c.distinct++
}

// expected is the number of tuples the flow's sources push.
func (c *checker) expected() int64 { return int64(c.sources * c.perSource) }

// failures counts expected keys not delivered intact exactly once (lost
// or corrupt), plus duplicates and tuples with keys the flow never pushed.
func (c *checker) failures() int64 {
	return c.expected() - c.distinct + c.dup + c.foreign
}

func (c *checker) String() string {
	return fmt.Sprintf("flow %d: %d of %d delivered exactly once (%d duplicate, %d corrupt, %d foreign)",
		c.flow, c.distinct, c.expected(), c.dup, c.corrupt, c.foreign)
}
