package main

import (
	"fmt"
	"os"
	"time"

	"gotle/internal/adaptive"
	"gotle/internal/htm"
	"gotle/internal/kvstore"
	"gotle/internal/repl"
	"gotle/internal/server"
	"gotle/internal/tle"
	"gotle/internal/wal"
	"gotle/internal/workload"
)

// node is one tleserved-shaped process image: runtime, store and the
// adaptive controller over its shards.
type node struct {
	rt    *tle.Runtime
	store *kvstore.Store
	ctl   *adaptive.Controller
}

// newNode wires a runtime, store and controller exactly as tleserved's
// main does for the given flags.
func newNode(f serverFlags) (*node, error) {
	policy, err := tle.ParsePolicy(f.policy)
	if err != nil {
		return nil, err
	}
	rt := tle.New(policy, tle.Config{
		MemWords:        f.mem,
		Hybrid:          f.adaptive,
		Observe:         true,
		DeferredReclaim: f.deferredReclaim,
		StripeShift:     f.stripeShift,
		HTM: htm.Config{
			WriteCapacityLines:   f.htmWriteLines,
			EventAbortPerMillion: f.htmEventPPM,
		},
	})
	n := &node{rt: rt, store: kvstore.New(rt, kvstore.Config{Shards: f.shards, MaxItemsPerShard: f.capacity})}
	if f.adaptive {
		n.ctl, err = adaptive.New(rt, n.store.ShardMutexes(), adaptive.Config{Interval: f.interval})
		if err != nil {
			rt.Close()
			return nil, err
		}
	}
	return n, nil
}

func (n *node) close() {
	if n.ctl != nil {
		n.ctl.Stop()
	}
	n.rt.Close()
}

// stack is the serving stack under test: a primary node behind a
// loopback server, plus, for durable workloads, its WAL, a replication
// source and one follower node subscribed over loopback.
type stack struct {
	spec   *spec
	flags  serverFlags
	prim   *node
	srv    *server.Server
	addr   string
	wlog   *wal.Log
	walDir string
	src    *repl.Source
	fol    *node
	fw     *repl.Follower
	closed bool
}

// buildStack starts the stack. walRoot holds the WAL directory of a
// durable workload.
func buildStack(s *spec, walRoot string) (st *stack, err error) {
	st = &stack{spec: s, flags: flagsFor(s)}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.prim, err = newNode(st.flags); err != nil {
		return st, err
	}
	if s.durable {
		if st.walDir, err = os.MkdirTemp(walRoot, "wal-"); err != nil {
			return st, err
		}
		if st.wlog, err = openRecovered(st.walDir, st.prim, st.flags.fsyncWindow); err != nil {
			return st, err
		}
		if err = st.prim.store.AttachWAL(st.wlog); err != nil {
			return st, err
		}
		st.src = repl.NewSource(st.prim.store.ShardCount(), walTail(st.wlog, st.prim.store.ShardCount()))
		st.prim.store.AttachTap(st.src)
		raddr, err := st.src.Start("127.0.0.1:0")
		if err != nil {
			return st, err
		}
		if st.fol, err = newNode(st.flags); err != nil {
			return st, err
		}
		st.fw = repl.NewFollower(st.fol.rt, st.fol.store, raddr.String(), nil)
		st.fw.Start()
		if st.fol.ctl != nil {
			st.fol.ctl.Start()
		}
	}
	if st.prim.ctl != nil {
		st.prim.ctl.Start()
	}
	scfg := server.Config{
		Addr:       "127.0.0.1:0",
		MaxConns:   st.flags.conns,
		QueueDepth: st.flags.queue,
		Controller: st.prim.ctl,
		WAL:        st.wlog,
	}
	if st.src != nil {
		scfg.ExtraStats = st.src.StatLines
	}
	st.srv = server.New(st.prim.rt, st.prim.store, scfg)
	bound, err := st.srv.Start()
	if err != nil {
		st.srv = nil
		return st, err
	}
	st.addr = bound.String()
	return st, nil
}

// openRecovered opens dir's WAL and replays it into n's store, as
// tleserved does at start-up. It returns the log still detached.
func openRecovered(dir string, n *node, window time.Duration) (*wal.Log, error) {
	if window <= 0 {
		window = -1
	}
	l, err := wal.Open(dir, n.store.ShardCount(), wal.Options{FsyncWindow: window})
	if err != nil {
		return nil, err
	}
	th := n.rt.NewThread()
	defer th.Release()
	_, err = l.Recover(func(_ int, rec wal.Record) error {
		switch rec.Op {
		case wal.OpSet:
			return n.store.SetItem(th, rec.Key, rec.Val, rec.Flags)
		case wal.OpDelete:
			_, err := n.store.Delete(th, rec.Key)
			return err
		default:
			return fmt.Errorf("wal: unknown op %v", rec.Op)
		}
	})
	if err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

func walTail(l *wal.Log, shards int) []uint64 {
	t := make([]uint64, shards)
	for i := range t {
		t[i] = l.LastSeq(i)
	}
	return t
}

// preload sets every key once, straight into the store, with values from
// the preload writer's generator. Keys go in from the highest index down:
// workload.Gen's Zipf ranks key 0 hottest, so the keys the LRU keeps are
// the hottest ones, as in a cache that has been serving a while. It
// returns the key of each value in sequence order (the read-mostly
// check's table for that writer).
func (st *stack) preload(seed int64, writer int) ([]uint32, error) {
	s := st.spec
	gen := workload.New(workload.Config{Keyspace: s.keyspace, ValueSizes: s.valSizes, Seed: seed}, writer)
	th := st.prim.rt.NewThread()
	defer th.Release()
	keys := make([]uint32, 0, s.keyspace)
	for k := uint32(s.keyspace); k > 0; k-- {
		if err := st.prim.store.SetItem(th, []byte(keyName(k-1)), gen.Value(), 0); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		keys = append(keys, k-1)
	}
	return keys, nil
}

// caughtUp reports whether the follower has applied everything the
// source has published.
func (st *stack) caughtUp() bool {
	for i := 0; i < st.prim.store.ShardCount(); i++ {
		if st.fw.Applied(i) < st.src.Seq(i) {
			return false
		}
	}
	return true
}

// waitCaughtUp polls until the follower has caught up.
func (st *stack) waitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !st.caughtUp() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not catch up within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// switches sums the controller's policy switches over every shard.
func (st *stack) switches() uint64 {
	if st.prim.ctl == nil {
		return 0
	}
	var n uint64
	for _, s := range st.prim.ctl.Status() {
		n += s.Switches
	}
	return n
}

// stopServing drains the server and, for durable stacks, lets the
// follower catch up and closes the replication source. The WAL stays
// open until close.
func (st *stack) stopServing() error {
	if st.srv != nil {
		st.srv.Shutdown(5 * time.Second)
		st.srv = nil
	}
	var err error
	if st.src != nil {
		err = st.waitCaughtUp(30 * time.Second)
		st.src.Close(5 * time.Second)
		st.src = nil
	}
	return err
}

// close tears everything down; it is safe after a partial build.
func (st *stack) close() {
	if st.closed {
		return
	}
	st.closed = true
	if st.srv != nil {
		st.srv.Shutdown(5 * time.Second)
	}
	if st.src != nil {
		st.src.Close(time.Second)
	}
	if st.fw != nil {
		st.fw.Stop()
	}
	if st.fol != nil {
		st.fol.close()
	}
	if st.wlog != nil {
		st.wlog.Close()
	}
	if st.prim != nil {
		st.prim.close()
	}
	if st.walDir != "" {
		os.RemoveAll(st.walDir)
	}
}
