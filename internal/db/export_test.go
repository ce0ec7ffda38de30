package db

import (
	"encoding/binary"
	"math/rand"
)

// CorruptPage is a page image of size bytes that no encoder wrote: its
// header claims rows rows over a seeded garbage body, and plant, when
// non-empty, lies at byte 100 so the matcher fires on the page and the
// device CPU must decode it.
func CorruptPage(size int, rows uint16, plant string, seed int64) []byte {
	page := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(page[4:])
	binary.LittleEndian.PutUint16(page, rows)
	copy(page[100:], plant)
	return page
}

// DropScratch empties d's query scratch, so the next query on d runs on
// fresh memory, as it would on a Database of its own.
func DropScratch(d *Database) { d.scratch = scratch{} }

// ScratchEntries returns how many batches, buffers, slabs and join
// indexes d's scratch holds.
func ScratchEntries(d *Database) [4]int {
	s := &d.scratch
	return [4]int{len(s.batches), len(s.bufs), len(s.slabs), len(s.indexes)}
}

// RunShapeMix loads a fixture table into d and runs n queries of every
// shape that takes scratch on it.
var RunShapeMix = runShapeMix

// DropMatcherMemo takes d's device matcher away, so every page the next
// query judges runs through the automaton, as if no query had judged it
// before.
func DropMatcherMemo(d *Database) { d.Sys.Plat.Matcher = nil }

// LawFaults is the fault plan the narrowing law runs under.
var LawFaults = lawFaults
