package fault

import (
	"sync"

	"repro/internal/machine"
)

// CrashRegistry remembers which ranks have already fired their scheduled
// crash, shared across every transport incarnation of a recovering
// session — the original launch and every relaunch consult the same
// registry. Without it a relaunched rank's fresh injector would reset its
// delivery clock and re-fire the same crash forever, so no relaunch
// budget could ever converge.
type CrashRegistry struct {
	fired sync.Map // rank → struct{}
}

// claim consumes rank's one crash allowance; false if already fired.
func (cr *CrashRegistry) claim(rank int) bool {
	_, fired := cr.fired.LoadOrStore(rank, struct{}{})
	return !fired
}

// TransportRecoverable builds the transport factory for a crash-recovery
// session: the reliable protocol over the plan's injected wire, with all
// crash faults sharing one registry so a recovered rank stays recovered
// across relaunches.
func TransportRecoverable(plan Plan, opt ReliableOptions) machine.TransportFactory {
	reg := &CrashRegistry{}
	return func(w machine.Wire) machine.Transport {
		return NewReliable(injectWith(w, plan, reg), opt)
	}
}
