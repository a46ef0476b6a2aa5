package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"gotle/internal/kvstore"
	"gotle/internal/tle"
	"gotle/internal/wal"
)

// Span names. client.request wraps one op on the loopback pass; the
// layer pass wraps each replayed get or fused mutation run in
// layer.replay, with the calls into each layer as its children.
const (
	spClient uint8 = iota
	spReplay
	spGet
	spMutate
	spMutSolo
	spWalWait
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spClient:  "client.request",
	spReplay:  "layer.replay",
	spGet:     "kvstore.get",
	spMutate:  "kvstore.mutate_batch",
	spMutSolo: "kvstore.mutate_solo",
	spWalWait: "wal.wait",
}

// span is one timed interval. Spans of one request share req; parent is
// 0 for a root span.
type span struct {
	start, end int64
	id, parent uint64
	req        uint64
	name       uint8
	kind       uint8 // client.request only: the op kind
}

func (s span) dur() int64 { return s.end - s.start }

// tracer hands out span ids for one layer-pass goroutine.
type tracer struct {
	clk   *clock
	base  uint64
	n     uint64
	spans []span
}

func (t *tracer) begin(name uint8, parent, req uint64) int {
	t.n++
	t.spans = append(t.spans, span{start: t.clk.now(), id: t.base | t.n, parent: parent, req: req, name: name})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = t.clk.now() }

// layerPass replays every worker's traced op stream directly on the
// primary store, one tm.Thread per worker, through the entry points the
// server uses: GetItemAppend for gets, MutateBatch for runs of adjacent
// mutations (at most one pipeline's depth, as the server fuses what one
// connection has queued), and Ticket.Wait on each of the batch's WAL
// tickets. It returns each worker's spans and the hits it read.
func layerPass(st *stack, clk *clock, workers []*worker, depth int) ([][]span, []hit, error) {
	out := make([][]span, len(workers))
	hits := make([][]hit, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			tr := &tracer{clk: clk, base: uint64(64+w.id) << 40}
			hits[i], errs[i] = replay(st, tr, w.traced, w.spec.valSizes, depth)
			out[i] = tr.spans
		}(i, w)
	}
	wg.Wait()
	var all []hit
	for _, h := range hits {
		all = append(all, h...)
	}
	return out, all, errors.Join(errs...)
}

func replay(st *stack, tr *tracer, ops []tracedOp, sizes []int, depth int) ([]hit, error) {
	store := st.prim.store
	th := st.prim.rt.NewThread()
	defer th.Release()
	var (
		sc   kvstore.BatchScratch
		bops []kvstore.BatchOp
		bres []kvstore.BatchResult
		tks  []wal.Ticket
		dst  []byte
		hits []hit
	)
	for i := 0; i < len(ops); {
		op := ops[i]
		root := tr.begin(spReplay, 0, op.req)
		rootID := tr.spans[root].id
		if op.kind == kGet {
			key := []byte(keyName(op.key))
			sp := tr.begin(spGet, rootID, op.req)
			var it kvstore.Item
			var ok bool
			var err error
			dst, it, ok, err = store.GetItemAppend(th, key, dst[:0])
			tr.end(sp)
			tr.end(root)
			if err != nil {
				return hits, fmt.Errorf("layer pass get: %w", err)
			}
			if ok {
				hits = append(hits, hit{fp: fingerprint(it.Value, sizes), key: op.key})
			}
			i++
			continue
		}
		j := i
		bops = bops[:0]
		for j < len(ops) && ops[j].kind != kGet && j-i < depth {
			b := kvstore.BatchOp{Key: []byte(keyName(ops[j].key)), Verb: kvstore.BatchDelete}
			if ops[j].kind == kSet {
				b.Verb, b.Val = kvstore.BatchSet, valueOf(ops[j].fp, int(ops[j].size))
			}
			bops = append(bops, b)
			j++
		}
		bres = append(bres[:0], make([]kvstore.BatchResult, len(bops))...)
		sp := tr.begin(spMutate, rootID, op.req)
		err := store.MutateBatch(th, bops, bres, &sc)
		tr.end(sp)
		tks = append(tks[:0], sc.Tickets...)
		if errors.Is(err, tle.ErrUnfusable) {
			// The server falls back to per-op execution here too, and
			// waits the solo tickets only when a WAL is attached.
			tks = tks[:0]
			for k := range bops {
				sp := tr.begin(spMutSolo, rootID, ops[i+k].req)
				var tk wal.Ticket
				if bops[k].Verb == kvstore.BatchSet {
					tk, err = store.SetItemD(th, bops[k].Key, bops[k].Val, 0)
				} else {
					_, tk, err = store.DeleteD(th, bops[k].Key)
				}
				tr.end(sp)
				if err != nil {
					break
				}
				if st.wlog != nil {
					tks = append(tks, tk)
				}
			}
		}
		if err != nil {
			tr.end(root)
			return hits, fmt.Errorf("layer pass mutate: %w", err)
		}
		for k := range bres {
			if bres[k].Err != nil {
				tr.end(root)
				return hits, fmt.Errorf("layer pass mutate: %w", bres[k].Err)
			}
		}
		for _, tk := range tks {
			sp := tr.begin(spWalWait, rootID, op.req)
			err := tk.Wait()
			tr.end(sp)
			if err != nil {
				tr.end(root)
				return hits, fmt.Errorf("layer pass wal wait: %w", err)
			}
		}
		tr.end(root)
		i = j
	}
	return hits, nil
}

// spanSummary is one span name's durations and self times.
type spanSummary struct {
	count     int
	dur, self []int64
}

// summarize computes each span name's durations and self times: a span's
// duration minus the time its children cover (children of one span never
// overlap here: each layer-pass goroutine is sequential).
func summarize(sets ...[][]span) [numSpanNames]spanSummary {
	var out [numSpanNames]spanSummary
	for _, set := range sets {
		for _, spans := range set {
			child := make(map[uint64]int64, len(spans))
			for _, s := range spans {
				if s.parent != 0 {
					child[s.parent] += s.dur()
				}
			}
			for _, s := range spans {
				if s.end == 0 {
					continue // sent in the traced window, answered after stop
				}
				sum := &out[s.name]
				sum.count++
				sum.dur = append(sum.dur, s.dur())
				sum.self = append(sum.self, s.dur()-child[s.id])
			}
		}
	}
	for i := range out {
		sortInts(out[i].dur)
		sortInts(out[i].self)
	}
	return out
}

// clientMedians returns the client.request median for gets and for
// mutations.
func clientMedians(sets [][]span) (get, mut float64, nGet, nMut int) {
	var g, m []int64
	for _, spans := range sets {
		for _, s := range spans {
			if s.name != spClient || s.end == 0 {
				continue
			}
			if s.kind == kGet {
				g = append(g, s.dur())
			} else {
				m = append(m, s.dur())
			}
		}
	}
	sortInts(g)
	sortInts(m)
	return quantileUs(g, 0.5), quantileUs(m, 0.5), len(g), len(m)
}

// writeSpans writes every span as CSV, times in ns since the run began.
func writeSpans(path string, sets ...[][]span) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	n := 0
	io.WriteString(bw, "name,start_ns,end_ns,span_id,parent_id,request_id\n")
	for _, set := range sets {
		for _, spans := range set {
			for _, s := range spans {
				fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%d\n", spanNames[s.name], s.start, s.end, s.id, s.parent, s.req)
				n++
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

func sortInts(v []int64) { slices.Sort(v) }
