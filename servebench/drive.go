package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gotle/internal/server/client"
	"gotle/internal/workload"
)

// Op kinds as recorded by the driver.
const (
	kGet uint8 = iota
	kSet
	kDel
	kDropped // shed at admission: provably never ran
)

// clock is the run's shared timeline. Times are nanoseconds since base
// on the monotonic clock. Workers read the window plan atomically: the
// plain fields are written before the atomic start that publishes them.
type clock struct {
	base     time.Time
	winLen   int64
	nWin     int
	winStart atomic.Int64 // 0 = measured window not planned yet
	trStart  atomic.Int64 // 0 = no traced window
	trEnd    atomic.Int64
	stop     atomic.Bool
	record   atomic.Bool // record the checked phase's history and hits
}

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// planWindows starts n measured sub-windows of length d from now.
func (c *clock) planWindows(n int, d time.Duration) int64 {
	c.nWin, c.winLen = n, int64(d)
	start := c.now()
	c.winStart.Store(start)
	return start
}

// window maps a completion time to its measured sub-window, or -1.
func (c *clock) window(t int64) int {
	s := c.winStart.Load()
	if s == 0 || t < s {
		return -1
	}
	if i := int((t - s) / c.winLen); i < c.nWin {
		return i
	}
	return -1
}

// planTrace marks [now, now+d) as the traced window.
func (c *clock) planTrace(d time.Duration) {
	start := c.now()
	c.trEnd.Store(start + int64(d))
	c.trStart.Store(start)
}

func (c *clock) traced(t int64) bool {
	s := c.trStart.Load()
	return s != 0 && t >= s && t < c.trEnd.Load()
}

// winStats is one worker's account of one measured sub-window, by
// response time.
type winStats struct {
	getLat, mutLat latHist // send to response
	attempted      int     // responses of any kind
	completed      int     // responses that were not shed or errors
	failed         int     // shed, error and check-violating responses
	gets, hits     int
	userBytes      int64 // key+value bytes of completed mutations
}

// hop is one operation of the linearizability history.
type hop struct {
	call, ret int64
	fp        uint64 // set: value written; get: value seen (fpNone = miss)
	key       uint32
	kind      uint8
	ok        bool // get: hit; delete: removed
	pending   bool // answered with an error: it may or may not have run
}

// hit is one get hit, for the read-mostly provenance check.
type hit struct {
	fp  uint64
	key uint32
}

// tracedOp is one op sent in the traced window, kept for the layer pass.
type tracedOp struct {
	fp   uint64
	req  uint64
	key  uint32
	size int32
	kind uint8
}

// inflight is one sent, unanswered request. The server answers in order.
type inflight struct {
	fp    uint64
	req   uint64
	start int64
	hidx  int // history index, -1 when unrecorded
	span  int // span index, -1 when untraced
	key   uint32
	kind  uint8
	size  int32
}

// worker is one closed-loop connection.
type worker struct {
	id    int
	spec  *spec
	clk   *clock
	depth int
	c     *client.Client
	gen   *workload.Gen

	wins    []winStats
	hist    []hop
	hits    []hit
	setKeys []uint32 // key of this writer's s-th value at index s-1
	spans   []span
	traced  []tracedOp

	// Totals over the whole run, warm-up included.
	shed, errs, corrupt int
	nreq                uint64
	err                 error
}

// load is the closed-loop generator: one worker per connection. It runs
// from warm-up on; stop pauses it with nothing in flight, resume restarts
// it where it left off, and close ends it.
type load struct {
	clk     *clock
	workers []*worker
	wg      sync.WaitGroup
}

func startLoad(st *stack, clk *clock, seed int64, conns, depth, maxWin int) (*load, error) {
	l := &load{clk: clk}
	s := st.spec
	for i := 0; i < conns; i++ {
		c, err := client.Dial(st.addr)
		if err != nil {
			l.close()
			return nil, err
		}
		w := &worker{
			id: i, spec: s, clk: clk, depth: depth, c: c,
			gen:  workload.New(workload.Config{Keyspace: s.keyspace, Skew: s.skew, ValueSizes: s.valSizes, Seed: seed}, i),
			wins: make([]winStats, maxWin),
		}
		l.workers = append(l.workers, w)
	}
	l.resume()
	return l, nil
}

func (l *load) resume() {
	l.clk.stop.Store(false)
	for _, w := range l.workers {
		l.wg.Add(1)
		go func(w *worker) {
			defer l.wg.Done()
			w.err = w.run()
		}(w)
	}
}

// stop pauses the load once every in-flight request is answered.
func (l *load) stop() error {
	l.clk.stop.Store(true)
	l.wg.Wait()
	for _, w := range l.workers {
		if w.err != nil {
			return fmt.Errorf("connection %d: %w", w.id, w.err)
		}
	}
	return nil
}

// close stops the load and closes its connections.
func (l *load) close() error {
	err := l.stop()
	for _, w := range l.workers {
		w.c.Close()
	}
	return err
}

// run keeps depth requests in flight; when the window is full it drains
// half of it before topping it up, so each write carries several
// requests (the loadgen discipline).
func (w *worker) run() error {
	q := make([]inflight, 0, w.depth)
	var aside []uint32
	half := (w.depth + 1) / 2
	for {
		stopping := w.clk.stop.Load()
		if stopping && len(q) == 0 {
			return nil
		}
		for !stopping && len(q) < w.depth {
			op, err := w.send(&aside)
			if err != nil {
				return err
			}
			q = append(q, op)
		}
		drain := len(q)
		if !stopping && drain > half {
			drain = half
		}
		for i := 0; i < drain; i++ {
			if err := w.recv(q[i], &aside); err != nil {
				return err
			}
		}
		q = q[:copy(q, q[drain:])]
	}
}

func (w *worker) send(aside *[]uint32) (inflight, error) {
	op := inflight{hidx: -1, span: -1, req: uint64(w.id+1)<<40 | w.nreq}
	w.nreq++
	var keyStr string
	if len(*aside) > 0 {
		op.kind, op.key = kSet, (*aside)[0]
		*aside = (*aside)[1:]
		keyStr = keyName(op.key)
	} else {
		switch w.gen.Op(w.spec.mix) {
		case workload.OpSet:
			op.kind = kSet
		case workload.OpDelete:
			op.kind = kDel
		default:
			op.kind = kGet
		}
		keyStr = w.gen.Key()
		op.key = keyIndex(keyStr)
	}
	var v []byte
	if op.kind == kSet {
		v = w.gen.Value()
		op.fp, op.size = fingerprint(v, w.spec.valSizes), int32(len(v))
		if _, s := fpSplit(op.fp); op.fp == fpCorrupt || s != uint64(len(w.setKeys))+1 {
			return op, fmt.Errorf("generator value %q out of sequence", v)
		}
		w.setKeys = append(w.setKeys, op.key)
	}
	op.start = w.clk.now()
	if w.spec.linearize && w.clk.record.Load() {
		op.hidx = len(w.hist)
		w.hist = append(w.hist, hop{call: op.start, key: op.key, kind: op.kind, fp: op.fp})
	}
	if w.clk.traced(op.start) {
		op.span = len(w.spans)
		w.spans = append(w.spans, span{name: spClient, kind: op.kind, start: op.start, id: op.req, req: op.req})
		w.traced = append(w.traced, tracedOp{fp: op.fp, req: op.req, key: op.key, size: op.size, kind: op.kind})
	}
	var err error
	switch op.kind {
	case kGet:
		err = w.c.SendGet(false, keyStr)
	case kSet:
		err = w.c.SendSet(keyStr, v, 0)
	case kDel:
		err = w.c.SendDelete(keyStr)
	}
	return op, err
}

func (w *worker) recv(op inflight, aside *[]uint32) error {
	rsp, err := w.c.Recv()
	if err != nil {
		return err
	}
	t := w.clk.now()
	var ws *winStats
	if i := w.clk.window(t); i >= 0 {
		ws = &w.wins[i]
		ws.attempted++
	}
	if op.span >= 0 {
		w.spans[op.span].end = t
	}
	var h *hop
	if op.hidx >= 0 {
		h = &w.hist[op.hidx]
		h.ret = t
	}
	fail := func() {
		if ws != nil {
			ws.failed++
		}
	}
	switch {
	case rsp.Busy():
		w.shed++
		fail()
		if h != nil {
			h.kind = kDropped
		}
		return nil
	case rsp.Err != "":
		w.errs++
		fail()
		if h != nil {
			h.pending = true
		}
		return nil
	}
	ok := true
	switch op.kind {
	case kGet:
		if len(rsp.Items) > 0 {
			fp := fingerprint(rsp.Items[0].Value, w.spec.valSizes)
			if fp == fpCorrupt {
				w.corrupt++
				fail()
			}
			if h != nil {
				h.ok, h.fp = true, fp
			} else if !w.spec.linearize && w.clk.record.Load() {
				w.hits = append(w.hits, hit{fp: fp, key: op.key})
			}
		} else if w.spec.cacheAside {
			*aside = append(*aside, op.key)
		}
		if ws != nil {
			ws.gets++
			if len(rsp.Items) > 0 {
				ws.hits++
			}
		}
	case kSet:
		ok = rsp.Status == "STORED"
	case kDel:
		ok = rsp.Status == "DELETED" || rsp.Status == "NOT_FOUND"
		if h != nil {
			h.ok = rsp.Status == "DELETED"
		}
	}
	if !ok {
		w.errs++
		fail()
		if h != nil {
			h.pending = true
		}
		return nil
	}
	if ws != nil {
		ws.completed++
		lat := t - op.start
		if op.kind == kGet {
			ws.getLat.record(lat)
		} else {
			ws.mutLat.record(lat)
			ws.userBytes += int64(len(keyName(op.key))) + int64(op.size)
		}
	}
	return nil
}
