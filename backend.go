package sttsv

import (
	"repro/internal/machine"
	"repro/internal/netwire"
)

// This file re-exports the packet-backend seam: the machine.Backend API a
// RunConfig selects its raw packet layer through, the in-memory simulator
// that is the default, and the real-socket loopback from internal/netwire.
// Every run shape — ParallelCompute, sessions, the serving pool — takes
// the backend through RunConfig (ParallelOptions.Machine), so switching a
// program from simulated mailboxes to real kernel sockets is a one-line
// configuration change:
//
//	opts.Machine.BackendFactory = sttsv.TCPLoopback
//
// See ExampleReplay and the cmd tools' shared -backend flag
// (internal/backendflag) for complete flows.

// Backend supplies the raw packet layer a machine runs on: one
// BackendWire per local rank. Nil in RunConfig selects the in-memory
// SimBackend.
type Backend = machine.Backend

// BackendWire is one rank's raw packet endpoint as a Backend provides
// it — pure packet movement; the machine layers metering, epoch fencing
// and abort semantics on top.
type BackendWire = machine.BackendWire

// SimBackend is the default in-memory mailbox backend (the simulator the
// paper's meters were built on).
type SimBackend = machine.SimBackend

// NewSimBackend returns an in-memory backend of unbounded mailboxes.
func NewSimBackend() *SimBackend { return machine.NewSimBackend() }

// LoopbackBackend runs all P ranks of one process over real sockets —
// every packet framed, written to the kernel and decoded back — while the
// machine and everything above it run unchanged. Results and logical
// meters match the SimBackend bit for bit.
type LoopbackBackend = netwire.Loopback

// NewLoopbackBackend returns a single-process socket backend; network is
// "tcp" or "unix". Assign it to RunConfig.Backend (caller closes it), or
// use TCPLoopback/UnixLoopback as a RunConfig.BackendFactory so each
// machine incarnation builds and owns a fresh one.
func NewLoopbackBackend(network string) (*LoopbackBackend, error) {
	return netwire.NewLoopback(network)
}

// TCPLoopback is a RunConfig.BackendFactory building a fresh TCP loopback
// backend per machine incarnation.
func TCPLoopback() (Backend, error) { return netwire.NewLoopback("tcp") }

// UnixLoopback is a RunConfig.BackendFactory building a fresh unix-socket
// loopback backend per machine incarnation.
func UnixLoopback() (Backend, error) { return netwire.NewLoopback("unix") }
