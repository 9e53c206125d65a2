// Package core implements RAGO itself (§6): the systematic search over RAG
// serving schedules — task placement, resource allocation, and batching
// policy — that produces the TTFT/TPOT/QPS-per-chip Pareto frontier for a
// RAGSchema under a resource constraint (Algorithm 1).
//
// The schedule representation and its compilation into an executable plan
// live in internal/engine; core re-exports the schedule types and owns the
// search. The package also provides the paper's comparison baseline (an
// LLM-only serving system extended with RAG components collocated into its
// prefix tier, §7.1) and the micro-batched burst TTFT model of §7.2.
package core

import (
	"rago/internal/engine"
	"rago/internal/perf"
)

// GroupSchedule is the resolved policy for one XPU placement group.
type GroupSchedule = engine.GroupSchedule

// Schedule is one complete scheduling decision: where every stage runs,
// with how many resources, at which batch sizes. It is engine.Schedule;
// core aliases it so the optimizer's public surface stays in one package.
type Schedule = engine.Schedule

// SchedulePoint couples a complete schedule with its assembled metrics.
type SchedulePoint = perf.Point[Schedule]
