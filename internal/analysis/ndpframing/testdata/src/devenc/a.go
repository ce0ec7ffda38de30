// Package devenc exercises the D2H packet-framing check.
package devenc

import (
	"biscuit"
	"biscuit/internal/core"
)

// Context mirrors the public biscuit.Context alias: the analyzer must
// see through it to the core type.
type Context = core.Context

// NDPBatchBytes mirrors the framing constant of internal/db.
const NDPBatchBytes = 1 << 10

func framedEncoder(c *core.Context, out *core.OutPort, rows [][]byte) {
	var batch []byte
	for _, r := range rows {
		batch = append(batch, r...)
		if len(batch) >= NDPBatchBytes {
			if !out.Put(biscuit.NewPacket(batch)) { // framed: fine
				return
			}
			batch = nil
		}
	}
	if len(batch) > 0 {
		out.Put(biscuit.NewPacket(batch)) // final flush of a framing function: fine
	}
}

func perRowEncoder(c *core.Context, out *core.OutPort, rows [][]byte) {
	for _, r := range rows {
		out.Put(biscuit.NewPacket(r)) // want `device function perRowEncoder wraps rows in a Packet without framing`
	}
}

func perRowViaAlias(c *Context, out *core.OutPort, row []byte) {
	out.Put(biscuit.NewPacket(row)) // want `device function perRowViaAlias wraps rows in a Packet without framing`
}

func perRowInClosure(c *core.Context, out *core.OutPort, rows [][]byte) {
	emit := func(r []byte) bool {
		return out.Put(biscuit.NewPacket(r)) // want `device function perRowInClosure wraps rows in a Packet without framing`
	}
	for _, r := range rows {
		if !emit(r) {
			return
		}
	}
}

func controlPing(c *core.Context, out *core.OutPort) {
	out.Put(biscuit.NewPacket([]byte{1})) // fixed control message: fine
}

func hostCode(out *core.OutPort, row []byte) {
	out.Put(biscuit.NewPacket(row)) // no *core.Context: host code, out of scope
}

func waivedProtocol(c *core.Context, out *core.OutPort, row []byte) {
	out.Put(biscuit.NewPacket(row)) //biscuitvet:ignore ndpframing: handshake protocol sends exactly one row per packet
}
