package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"neobft/internal/bench"
	"neobft/internal/replication"
)

// phaseSpec is one closed-loop phase: clients that each keep window
// operations in flight, a discarded warm-up, and a measured window.
type phaseSpec struct {
	name    string
	clients int
	window  int
	warmup  time.Duration
	measure time.Duration
	// slices is how many equal sub-windows the measured window is cut
	// into; per-window figures are medians over them.
	slices int
}

// phaseResult accounts for every operation a phase issued:
// attempted = completed + failed + unfinished.
type phaseResult struct {
	spec phaseSpec

	attempted, completed, failed, unfinished int
	// wrong holds the first few incorrect replies (they count as failed).
	wrong []string
	// slices cut the measured window into equal sub-windows.
	slices []slice
	// blocked is the time submitters spent inside Start during the
	// measured window (Start blocks while the client's window is full).
	blocked time.Duration
	// stall is the total length of gaps between consecutive completions
	// (phase start and drain end included) longer than clientTimeout.
	stall time.Duration
}

// mark is a slice boundary with the process's resource counters and
// the highest heap size sampled since the previous mark.
type mark struct {
	at         time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	heapPeak   uint64
}

// slice is one sub-window of the measured window.
type slice struct {
	dur  time.Duration
	ops  int             // completions inside the slice
	lats []time.Duration // latencies of completed ops issued inside it
	// cpu, mallocs and allocBytes are process-wide deltas; heapPeak is
	// the highest heap size sampled during the slice.
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	heapPeak   uint64
}

// window is the measured window's length.
func (r *phaseResult) window() time.Duration {
	var d time.Duration
	for _, s := range r.slices {
		d += s.dur
	}
	return d
}

// slicesOf builds the slices between consecutive marks and assigns each
// completed op (issue and completion time since phase start) to the
// slice it was issued in for latency and to the one it completed in for
// throughput. Reporting the median over slices keeps a burst of
// interference on a shared host from moving a whole run's figure.
func slicesOf(marks []mark, issued, done []time.Duration) []slice {
	out := make([]slice, len(marks)-1)
	for k := range out {
		a, b := marks[k], marks[k+1]
		out[k] = slice{dur: b.at - a.at, cpu: b.cpu - a.cpu, mallocs: b.mallocs - a.mallocs, allocBytes: b.allocBytes - a.allocBytes, heapPeak: b.heapPeak}
	}
	find := func(t time.Duration) int {
		k := sort.Search(len(marks), func(i int) bool { return marks[i].at > t }) - 1
		if k < 0 || k >= len(out) {
			return -1
		}
		return k
	}
	for i, at := range issued {
		if k := find(at); k >= 0 {
			out[k].lats = append(out[k].lats, done[i]-at)
		}
		if k := find(done[i]); k >= 0 {
			out[k].ops++
		}
	}
	return out
}

// inWindow counts completions inside the measured window.
func (r *phaseResult) inWindow() int {
	n := 0
	for _, s := range r.slices {
		n += s.ops
	}
	return n
}

// lats are the latencies of completed operations issued inside the
// measured window.
func (r *phaseResult) lats() []time.Duration {
	var all []time.Duration
	for _, s := range r.slices {
		all = append(all, s.lats...)
	}
	return all
}

// tput is the phase's committed operations per second over the whole
// measured window.
func (r *phaseResult) tput() float64 { return float64(r.inWindow()) / r.window().Seconds() }

// pending is an issued operation awaiting its in-order completion.
type pending struct {
	call replication.Call
	op   []byte
	at   time.Duration // issue time, since phase start
}

// doneCall is a call that had completed, at time at, before it was
// handed to the completer.
type doneCall struct {
	res []byte
	err error
	at  time.Duration
}

func (d doneCall) Wait() ([]byte, error) { return d.res, d.err }

// genClient is one closed-loop client: a submitter goroutine that calls
// Start until the phase stops (Start blocks while the client's window is
// full) and a completer goroutine that waits for the calls in issue
// order, which is the order replication.Client releases them in. With a
// window of 1 the submitter calls Invoke instead.
type genClient struct {
	mu        sync.Mutex
	closed    bool // the phase has been accounted; record nothing more
	attempted int
	completed int
	failed    int
	wrong     []string
	issued    []time.Duration // per completed op: issue time
	done      []time.Duration // per completed op: completion time
	blocked   time.Duration
}

// attempt counts one issued op and the time its submitter was blocked
// issuing it, unless the phase has already been accounted.
func (c *genClient) attempt(blocked time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.attempted++
		c.blocked += blocked
	}
}

// runPhase drives spec against sys with clients numbered from firstID.
// It returns once every operation has completed or drainBound has passed
// since the measured window closed; operations still in flight then are
// counted as unfinished, and their goroutines record nothing further.
func runPhase(sys *bench.System, w workload, seed int64, spec phaseSpec, firstID int, heap *heapWatch, onWindow func(open bool)) phaseResult {
	var (
		stop      atomic.Bool
		measuring atomic.Bool
		wg        sync.WaitGroup
		clients   = make([]*genClient, spec.clients)
	)
	rings := make([]*opRing, spec.clients)
	invokers := make([]bench.Invoker, spec.clients)
	for i := range clients {
		clients[i] = &genClient{}
		rings[i] = w.ring(seed, firstID+i)
		invokers[i] = sys.NewClient(firstID + i)
	}
	begin := time.Now()
	for i, c := range clients {
		ch := make(chan pending, spec.window+1) // one per window slot plus the op being handed over
		inv, ring := invokers[i], rings[i]
		st := inv.(bench.Starter)
		wg.Add(1)
		go func() {
			defer close(ch)
			for !stop.Load() {
				op := ring.take()
				t0 := time.Now()
				var call replication.Call
				if spec.window == 1 {
					// Invoke is Start plus Wait, and the call the client
					// traces when tracing is on. The op is issued at once,
					// so it counts as attempted before Invoke returns.
					c.attempt(0)
					res, err := inv.Invoke(op, opTimeout)
					call = doneCall{res: res, err: err, at: time.Since(begin)}
				} else {
					call = st.Start(op, opTimeout)
					var blocked time.Duration
					if measuring.Load() {
						blocked = time.Since(t0)
					}
					c.attempt(blocked)
				}
				ch <- pending{call: call, op: op, at: t0.Sub(begin)}
			}
		}()
		go func() {
			defer wg.Done()
			for p := range ch {
				res, err := p.call.Wait()
				at := time.Since(begin)
				if d, ok := p.call.(doneCall); ok {
					at = d.at
				}
				bad := ""
				if err == nil {
					bad = w.check(p.op, res)
				}
				c.mu.Lock()
				switch {
				case c.closed:
				case err != nil:
					c.failed++
				case bad != "":
					c.failed++
					if len(c.wrong) < 4 {
						c.wrong = append(c.wrong, bad)
					}
				default:
					c.completed++
					c.issued = append(c.issued, p.at)
					c.done = append(c.done, at)
				}
				c.mu.Unlock()
			}
		}()
	}

	var res phaseResult
	res.spec = spec
	time.Sleep(spec.warmup)
	if onWindow != nil {
		onWindow(true)
	}
	measuring.Store(true)
	marks := []mark{takeMark(begin, heap)}
	for k := 1; k <= spec.slices; k++ {
		time.Sleep(marks[0].at + spec.measure*time.Duration(k)/time.Duration(spec.slices) - time.Since(begin))
		marks = append(marks, takeMark(begin, heap))
	}
	measuring.Store(false)
	if onWindow != nil {
		onWindow(false)
	}
	stop.Store(true)

	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainBound):
	}
	end := time.Since(begin)

	var issued, done []time.Duration
	for _, c := range clients {
		c.mu.Lock()
		c.closed = true
		res.attempted += c.attempted
		res.completed += c.completed
		res.failed += c.failed
		res.wrong = append(res.wrong, c.wrong...)
		res.blocked += c.blocked
		issued = append(issued, c.issued...)
		done = append(done, c.done...)
		c.mu.Unlock()
	}
	res.unfinished = res.attempted - res.completed - res.failed
	if res.unfinished == 0 && len(done) > 0 {
		end = maxDuration(done)
	}
	res.stall = stallTime(done, end)
	res.slices = slicesOf(marks, issued, done)
	return res
}

// stallTime sums the gaps longer than clientTimeout between consecutive
// completions, counting from 0 and up to end.
func stallTime(done []time.Duration, end time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), done...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var stall, prev time.Duration
	for _, d := range append(sorted, end) {
		if gap := d - prev; gap > clientTimeout {
			stall += gap
		}
		prev = d
	}
	return stall
}

func maxDuration(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// takeMark reads the time since begin, the process's user+system CPU
// time and allocation counters, and the heap peak since the last mark.
func takeMark(begin time.Time, heap *heapWatch) mark {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{
		at:         time.Since(begin),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		heapPeak:   heap.peak.Swap(0),
	}
}

// heapWatch samples the heap (live plus not yet swept objects) every
// 10ms and keeps the highest value since it was last reset.
type heapWatch struct {
	peak atomic.Uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func watchHeap() *heapWatch {
	h := &heapWatch{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			v := s[0].Value.Uint64()
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and waits for the sampler to exit.
func (h *heapWatch) stop() {
	close(h.done)
	h.wg.Wait()
}
