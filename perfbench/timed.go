package main

import (
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/exec"
)

// timedExecutorName is the registry name of the timing wrapper. Rounds
// select it through Options.Executor (in process) or the request's
// executor field (served), exactly as they would any other backend.
const timedExecutorName = "perfbench-timed"

func init() {
	exec.Register(timedExecutorName, func(src exec.Source) (exec.Executor, error) {
		inner, err := exec.New(exec.DefaultName, src)
		if err != nil {
			return nil, err
		}
		return &timedExecutor{Executor: inner}, nil
	})
}

// epoch anchors the nanosecond timestamps of recorded intervals.
var epoch = time.Now()

func since() int64 { return int64(time.Since(epoch)) }

// callStats accumulates the calls of one kind through the wrapper.
type callStats struct {
	calls  atomic.Int64
	busyNs atomic.Int64
	rows   atomic.Int64
}

// recorder collects what the wrapper sees while it is installed as the
// current recorder. With keepProbes set it also keeps each probe's
// interval, so the scheduler's self time can subtract their union.
type recorder struct {
	probes   callStats
	previews callStats

	keepProbes bool
	mu         sync.Mutex
	probeIvs   []interval
}

// current is the recorder the wrapper reports to; nil means record
// nothing.
var current atomic.Pointer[recorder]

// timedExecutor times every Exists (a validation probe) and ExecuteWith
// (a result preview) call into the columnar executor it wraps. Batched
// validation is off in every round the benchmark runs, so ExistsBatch
// passes through untimed.
type timedExecutor struct {
	exec.Executor
}

func (e *timedExecutor) Exists(p exec.Plan, opts exec.ExecOptions) (bool, exec.ExecStats, error) {
	rec := current.Load()
	if rec == nil {
		return e.Executor.Exists(p, opts)
	}
	start := since()
	ok, st, err := e.Executor.Exists(p, opts)
	end := since()
	rec.probe(start, end, st.RowsScanned)
	return ok, st, err
}

func (e *timedExecutor) ExecuteWith(p exec.Plan, opts exec.ExecOptions) (*exec.Result, error) {
	rec := current.Load()
	if rec == nil {
		return e.Executor.ExecuteWith(p, opts)
	}
	start := since()
	res, err := e.Executor.ExecuteWith(p, opts)
	rec.previews.calls.Add(1)
	rec.previews.busyNs.Add(since() - start)
	if res != nil {
		rec.previews.rows.Add(int64(len(res.Rows)))
	}
	return res, err
}

func (r *recorder) probe(start, end int64, rows int) {
	r.probes.calls.Add(1)
	r.probes.busyNs.Add(end - start)
	r.probes.rows.Add(int64(rows))
	if r.keepProbes {
		r.mu.Lock()
		r.probeIvs = append(r.probeIvs, interval{start, end})
		r.mu.Unlock()
	}
}
