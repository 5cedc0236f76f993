package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"disarcloud/internal/stochastic"
)

// recordRefs computes the answer to every (slot, variant) body every
// workload can send at the given run length and writes
// perfbench/reference.json. Run it at the parent commit of a change:
//
//	bash perfbench/run.sh -record --seconds 20
func recordRefs(seconds int) error {
	type task struct {
		w    *workload
		id   string
		body body
	}
	var tasks []task
	workers := runtime.NumCPU()
	for _, w := range workloads {
		for k := 0; k < w.count(seconds)+w.warmup; k++ {
			for v := 0; v < w.variants; v++ {
				tasks = append(tasks, task{w: w, id: refID(w.name, k, v), body: w.slotBody(k, v, workers)})
			}
		}
	}
	table := &refTable{Seconds: seconds, Entries: make(map[string]refEntry, len(tasks))}
	var mu sync.Mutex
	var firstErr error
	next := make(chan task)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := &replayer{buffers: stochastic.NewBatchPool(), valueOnly: true}
			for t := range next {
				var e refEntry
				v, err := rp.replayJob(context.Background(), t.id, t.body)
				if err == nil {
					e = refEntry{Key: t.body.refKey(), BEL: v.bel, SCR: v.scr}
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", t.id, err)
				}
				table.Entries[t.id] = e
				mu.Unlock()
			}
		}()
	}
	for i, t := range tasks {
		next <- t
		if i%100 == 0 {
			fmt.Fprintf(os.Stderr, "record: %d/%d\n", i, len(tasks))
		}
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return table.save(filepath.Join("perfbench", "reference.json"))
}
