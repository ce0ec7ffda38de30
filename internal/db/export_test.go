package db

// DropScratch empties d's query scratch, so the next query on d runs on
// fresh memory, as it would on a Database of its own.
func DropScratch(d *Database) { d.scratch = scratch{} }

// DropMatcherMemo takes d's device matcher away, so every page the next
// query judges runs through the automaton, as if no query had judged it
// before.
func DropMatcherMemo(d *Database) { d.Sys.Plat.Matcher = nil }

// LawFaults is the fault plan the narrowing law runs under.
var LawFaults = lawFaults
