package main

import (
	"bytes"
	"fmt"
	"strconv"

	"gotle/internal/linearize"
)

// preloadWriter is the generator worker id of the preload values: far
// above any connection's id, so its (worker, seq) fingerprints are its own.
const preloadWriter = 1000

// checkProvenance is the read-mostly gate: every hit returned a value
// that some set wrote to that key. tables maps a writer id to the key of
// each of its values, in sequence order. It returns the violations and a
// description of the first.
func checkProvenance(hits []hit, tables map[int][]uint32) (int, string) {
	bad, first := 0, ""
	for _, h := range hits {
		w, s := fpSplit(h.fp)
		keys := tables[w]
		if h.fp != fpCorrupt && s >= 1 && s <= uint64(len(keys)) && keys[s-1] == h.key {
			continue
		}
		if bad == 0 {
			first = fmt.Sprintf("get %s returned a value no set wrote to it (fingerprint %#x)", keyName(h.key), h.fp)
		}
		bad++
	}
	return bad, first
}

// checkLinearizable is the capacity-mixed gate: the checked phase's
// history, opened by the sets in init and keyed by value fingerprint,
// must be linearizable per key (linearize.KVModel). It returns the
// number of keys whose history is not, the first counterexample, and the
// number of ops checked.
func checkLinearizable(init []hop, workers []*worker) (int, string, int) {
	byKey := map[uint32][]linearize.Op{}
	add := func(client int, h hop) {
		if h.kind == kDropped {
			return
		}
		op := linearize.Op{Client: client, Call: h.call, Return: h.ret, Key: keyName(h.key), OK: h.ok, Pending: h.pending}
		switch h.kind {
		case kGet:
			op.Kind = "get"
			if h.ok {
				op.Output = strconv.FormatUint(h.fp, 16)
			}
		case kSet:
			op.Kind, op.Input = "set", strconv.FormatUint(h.fp, 16)
		case kDel:
			op.Kind = "delete"
		}
		byKey[h.key] = append(byKey[h.key], op)
	}
	for _, h := range init {
		add(-1, h)
	}
	n := len(init)
	for _, w := range workers {
		for _, h := range w.hist {
			add(w.id, h)
		}
		n += len(w.hist)
	}
	bad, first := 0, ""
	for _, ops := range byKey {
		if res := linearize.Check(linearize.KVModel{}, ops); !res.OK {
			if bad == 0 {
				first = res.String()
			}
			bad++
		}
	}
	return bad, first, n
}

// checkDumps is the durable-replicated gate: after quiesce, every shard's
// canonical dump is byte-identical across the named stores.
func checkDumps(names []string, dumps [][][]byte) (int, string) {
	bad, first := 0, ""
	for sh := range dumps[0] {
		for n := 1; n < len(dumps); n++ {
			if !bytes.Equal(dumps[0][sh], dumps[n][sh]) {
				if bad == 0 {
					first = fmt.Sprintf("shard %d: %s dump (%d bytes) differs from %s dump (%d bytes)",
						sh, names[n], len(dumps[n][sh]), names[0], len(dumps[0][sh]))
				}
				bad++
			}
		}
	}
	return bad, first
}
