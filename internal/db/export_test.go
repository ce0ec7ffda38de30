package db

// DropScratch empties d's query scratch, so the next query on d runs on
// fresh memory, as it would on a Database of its own.
func DropScratch(d *Database) { d.scratch = scratch{} }

// LawFaults is the fault plan the narrowing law runs under.
var LawFaults = lawFaults
