package pram

import (
	"sync"
	"sync/atomic"
)

// workerPool is the persistent execution engine behind Sim: a fixed set
// of long-lived goroutines that park on per-worker channels and execute
// the chunked iteration space of one phase at a time.
//
// The old executor spawned fresh goroutines and a new sync.WaitGroup for
// every superstep; on a cover run that meant hundreds of spawn/join
// rounds per call. Here a superstep is a wake/dispatch/join cycle with
// zero goroutine creation and zero allocation:
//
//   - the driver writes the phase descriptor (body, n, chunk) into the
//     pool, resets the shared chunk cursor, and sends one token to each
//     participating worker (a channel send of a bool does not allocate);
//   - workers and the driver race on an atomic cursor for chunks until
//     the iteration space is drained (dynamic self-scheduling, so an
//     unlucky chunk cannot straggle a whole static partition);
//   - the last participant to finish trips the join: each decrements the
//     active counter, and whoever reaches zero — unless it is the driver
//     itself — sends the single completion token the driver waits on.
//
// The channel send/receive pairs and the atomic counter provide all the
// happens-before edges: workers read the phase descriptor only after
// receiving their wake token, and the driver mutates it again only after
// the active counter has hit zero.
type workerPool struct {
	wake []chan bool // cap-1 per worker; true = run current phase, false = exit
	wg   sync.WaitGroup
	once sync.Once

	// Phase descriptor: written by the driver before the wake sends,
	// read by workers after the wake receive. Exactly one of body/rbody
	// is set: rbody receives whole [lo,hi) chunks, amortising the
	// indirect call that body pays per iteration.
	body   func(i int)
	rbody  func(lo, hi int)
	n      int
	chunk  int
	cursor atomic.Int64
	active atomic.Int64
	done   chan bool // single completion token per phase
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{
		wake: make([]chan bool, workers),
		done: make(chan bool, 1),
	}
	p.wg.Add(workers)
	for i := range p.wake {
		p.wake[i] = make(chan bool, 1)
		go p.worker(i)
	}
	return p
}

func (p *workerPool) worker(k int) {
	defer p.wg.Done()
	for <-p.wake[k] {
		p.work()
		if p.active.Add(-1) == 0 {
			p.done <- true
		}
	}
}

// work drains chunks from the shared cursor until the phase is exhausted.
func (p *workerPool) work() {
	n, chunk, body, rbody := p.n, p.chunk, p.body, p.rbody
	for {
		lo := int(p.cursor.Add(int64(chunk))) - chunk
		if lo >= n {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if rbody != nil {
			rbody(lo, hi)
		} else {
			for i := lo; i < hi; i++ {
				body(i)
			}
		}
	}
}

// dispatch runs one phase of n iterations of f across the pool plus the
// calling goroutine, blocking until every iteration has executed.
func (p *workerPool) dispatch(n int, f func(i int), grain int) {
	// Chunk so that each participant sees a few chunks (load balance)
	// without the cursor becoming a contention point.
	parts := len(p.wake) + 1
	chunk := ceilDiv(n, parts*4)
	if floor := grain / 4; chunk < floor {
		chunk = floor
	}
	if chunk < 1 {
		chunk = 1
	}
	helpers := ceilDiv(n, chunk) - 1 // the driver takes one share
	if helpers > len(p.wake) {
		helpers = len(p.wake)
	}
	if helpers <= 0 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	p.body, p.rbody, p.n, p.chunk = f, nil, n, chunk
	p.launch(helpers)
}

// dispatchRange is dispatch for chunk-granularity bodies.
func (p *workerPool) dispatchRange(n int, f func(lo, hi int), grain int) {
	parts := len(p.wake) + 1
	chunk := ceilDiv(n, parts*4)
	if floor := grain / 4; chunk < floor {
		chunk = floor
	}
	if chunk < 1 {
		chunk = 1
	}
	helpers := ceilDiv(n, chunk) - 1
	if helpers > len(p.wake) {
		helpers = len(p.wake)
	}
	if helpers <= 0 {
		f(0, n)
		return
	}
	p.body, p.rbody, p.n, p.chunk = nil, f, n, chunk
	p.launch(helpers)
}

// launch wakes the helpers for the prepared phase, participates, and
// joins.
func (p *workerPool) launch(helpers int) {
	p.cursor.Store(0)
	p.active.Store(int64(helpers) + 1)
	for i := 0; i < helpers; i++ {
		p.wake[i] <- true
	}
	p.work()
	if p.active.Add(-1) != 0 {
		<-p.done
	}
	p.body, p.rbody = nil, nil // do not retain phase closures between supersteps
}

// stop terminates the workers. It must only be called while no phase is
// in flight (Sim's single-driver discipline guarantees that), and it is
// safe to call more than once.
func (p *workerPool) stop() {
	p.once.Do(func() {
		for i := range p.wake {
			p.wake[i] <- false
		}
		p.wg.Wait()
	})
}
