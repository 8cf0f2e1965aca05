package machine

import (
	"math/bits"
	"sync"
)

// payloadPool recycles message payload buffers so a steady-state exchange
// loop (a resident parallel.Session applying the same schedule over and
// over) performs no allocations: Send draws its defensive copy from the
// sending rank's pool, and RecvInto returns the buffer to that same pool
// once the receiver has copied the payload out. Each rank has its own
// pool (see rankState), so the mutex below is shared only by one sender
// and the receivers of its messages, never by the whole machine.
//
// Buffers are grouped in power-of-two size classes, indexed by the
// class's bit length. Only buffers whose capacity is an exact class size
// are accepted back — everything else is left to the garbage collector —
// so a recycled buffer can always serve any request that maps to its
// class.
//
// Safety under faults: a buffer re-enters the pool only via RecvInto, and
// only for packets whose Recycle flag is set. The direct transport sets
// the flag (it holds no reference after delivery); the reliable transport
// does not (it keeps payloads in its retransmission window), so a
// retransmitted or duplicated message can never alias a reused buffer.
type payloadPool struct {
	mu      sync.Mutex
	classes [][][]float64 // classes[classIndex(n)]; grown on first put
}

// maxPooledPerClass bounds each size class so a burst can't pin memory
// forever; overflow buffers are dropped to the garbage collector.
const maxPooledPerClass = 1024

// classIndex returns the bit length of the power-of-two capacity class
// for a payload of n words (n >= 1).
func classIndex(n int) int {
	return bits.Len(uint(n - 1))
}

// classSize returns the power-of-two capacity class for a payload of n
// words (n >= 1).
func classSize(n int) int {
	return 1 << classIndex(n)
}

// get returns a length-n buffer, reusing a pooled one when available.
// Contents are unspecified; callers overwrite the full length.
func (pp *payloadPool) get(n int) []float64 {
	if n == 0 {
		return nil
	}
	ci := classIndex(n)
	pp.mu.Lock()
	if ci < len(pp.classes) {
		if list := pp.classes[ci]; len(list) > 0 {
			buf := list[len(list)-1]
			list[len(list)-1] = nil
			pp.classes[ci] = list[:len(list)-1]
			pp.mu.Unlock()
			return buf[:n]
		}
	}
	pp.mu.Unlock()
	return make([]float64, n, classSize(n))
}

// put returns a buffer to its size class. Buffers whose capacity is not an
// exact class size (callers may hand us foreign slices) are dropped.
func (pp *payloadPool) put(buf []float64) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	ci := classIndex(c)
	pp.mu.Lock()
	if ci >= len(pp.classes) {
		pp.classes = append(pp.classes, make([][][]float64, ci+1-len(pp.classes))...)
	}
	if list := pp.classes[ci]; len(list) < maxPooledPerClass {
		pp.classes[ci] = append(list, buf[:c])
	}
	pp.mu.Unlock()
}
