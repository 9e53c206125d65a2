package engine

import (
	"fmt"
	"math/bits"
	"slices"
)

// Batch-formation policies. PR 5 measured PadWaste ~0.61 on heavy-tailed
// Case I traffic under the implicit FIFO pad-to-max rule both executors
// hardcoded: every prefix batch is costed at the padded maximum of its
// members, so batching a 4k-token prompt with seven 512-token prompts
// wastes most of the prefill FLOPs. This file makes formation an explicit,
// pluggable dimension: a Former is the policy state machine one stage runs
// at batch formation. Each Dispatcher (dispatch.go) owns one Former per
// stage slot, and both executors form every batch through Dispatcher.Pick,
// so the live runtime and the discrete-event simulator cannot diverge on a
// formation decision.
//
// All policies share the ripeness contract of the historical FIFO rule: a
// window dispatches when it can fill a batch, or when its oldest member
// has waited FlushTimeout. On constant-shape traffic every policy
// degenerates to FIFO exactly (one bucket / all sort keys equal), which is
// what keeps the pre-refactor goldens bit-identical under every policy.

// BatchPolicy selects the batch-formation policy of the prefix stage.
// The zero value is FIFO — today's behavior, byte-compatible.
type BatchPolicy int

const (
	// PolicyFIFO dispatches the oldest waiting requests in arrival order
	// and pads the batch to its member maximum.
	PolicyFIFO BatchPolicy = iota
	// PolicyBucketed groups waiting requests into power-of-two prompt
	// length buckets and dispatches the fullest ripe bucket, so batch
	// members pad at most 2x past their own length.
	PolicyBucketed
	// PolicySorted length-sorts the candidate window and dispatches the
	// most similar run of prompts, with a deadline rescue that forces the
	// oldest member into the batch once it has waited FlushTimeout.
	PolicySorted
)

// String renders the CLI spelling.
func (p BatchPolicy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicyBucketed:
		return "bucketed"
	case PolicySorted:
		return "sorted"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseBatchPolicy parses the CLI spelling.
func ParseBatchPolicy(s string) (BatchPolicy, error) {
	switch s {
	case "", "fifo":
		return PolicyFIFO, nil
	case "bucketed":
		return PolicyBucketed, nil
	case "sorted":
		return PolicySorted, nil
	}
	return PolicyFIFO, fmt.Errorf("engine: unknown batch policy %q (want fifo|bucketed|sorted)", s)
}

// FormView is the executor-neutral view of one stage's waiting queue a
// formation policy decides over. Entries are in FIFO (enqueue) order;
// position 0 is the oldest waiting member.
type FormView interface {
	// Len is the window size.
	Len() int
	// EnqueuedAt is the virtual enqueue time of the i-th entry.
	EnqueuedAt(i int) float64
	// PromptTokens is the i-th entry's effective prompt length in tokens
	// (0 = unshaped, costed at the schema constant).
	PromptTokens(i int) int
}

// Former is the batch-formation state machine of one stage. Dispatcher
// owns one per stage slot (scratch is not shared): the plan's policy at
// the prefix slot, FIFO everywhere else; a bucketed slot's Dispatcher
// keeps the buckets as lanes and calls pickBucket, not Form. The zero value
// is not usable — build one with Plan.Former and set Flush.
type Former struct {
	// Policy is the formation policy.
	Policy BatchPolicy
	// Batch is the stage's full batch size.
	Batch int
	// Flush is the max-wait deadline: a window whose oldest member has
	// waited Flush dispatches partial.
	Flush float64
	// DefaultPrompt is the schema prompt length unshaped entries bucket
	// and sort at.
	DefaultPrompt int

	sel     []int       // selected positions, returned from Form
	ord     []int64     // sort scratch: promptLen<<32 | position
	keys    []int       // bucketed scratch: each position's bucket
	buckets []bucketAgg // bucketed scratch
}

type bucketAgg struct {
	key, count int
	headPos    int // the head's window position (Form only)
	headEnq    float64
}

// Form decides whether the window dispatches a batch now. n == 0 means
// nothing is ripe. Otherwise n is the batch size and sel lists the
// selected window positions in ascending order — nil means the FIFO
// prefix [0, n). sel aliases the Former's scratch and is valid until the
// next Form call. Form writes only that scratch.
func (f *Former) Form(v FormView, now float64) (n int, sel []int) {
	ln := v.Len()
	if ln == 0 {
		return 0, nil
	}
	switch f.Policy {
	case PolicyBucketed:
		return f.formBucketed(v, now, ln)
	case PolicySorted:
		return f.formSorted(v, now, ln)
	}
	return f.formFIFO(v, now, ln)
}

// formFIFO is the historical rule, bit for bit: dispatchable iff the
// window fills a batch or the head has aged past Flush; the batch is the
// FIFO prefix.
func (f *Former) formFIFO(v FormView, now float64, ln int) (int, []int) {
	if ln < f.Batch && now-v.EnqueuedAt(0) < f.Flush {
		return 0, nil
	}
	return min(f.Batch, ln), nil
}

// bucketOf maps a prompt length onto the power-of-two bucket grid
// (minimum one PadQuantum). Unshaped entries bucket at the schema
// constant, so constant-shape traffic collapses into a single bucket and
// the policy degenerates to FIFO.
func (f *Former) bucketOf(prompt int) int {
	if prompt <= 0 {
		prompt = f.DefaultPrompt
	}
	if prompt <= PadQuantum {
		return PadQuantum
	}
	return 1 << bits.Len(uint(prompt-1))
}

// formBucketed groups the window into pow2 length buckets (FIFO order
// within each) and dispatches pickBucket's winner: the first n window
// positions carrying its key. Because the overall window head is always
// some bucket's head, the earliest deadline across buckets equals the FIFO
// head deadline — the executors' park/flush wake-up logic needs no
// policy-specific changes.
func (f *Former) formBucketed(v FormView, now float64, ln int) (int, []int) {
	// Keys are powers of two, so a key's bit length indexes its aggregate.
	var at [bits.UintSize + 1]int // bit length → 1 + index in f.buckets
	f.buckets, f.keys = f.buckets[:0], f.keys[:0]
	for i := 0; i < ln; i++ {
		key := f.bucketOf(v.PromptTokens(i))
		f.keys = append(f.keys, key)
		if j := at[bits.Len(uint(key))]; j > 0 {
			f.buckets[j-1].count++
			continue
		}
		f.buckets = append(f.buckets, bucketAgg{key: key, count: 1, headPos: i, headEnq: v.EnqueuedAt(i)})
		at[bits.Len(uint(key))] = len(f.buckets)
	}
	best, n := f.pickBucket(f.buckets, now) // n == 0 selects nothing
	win := f.buckets[best]
	f.sel = f.sel[:0]
	for i := win.headPos; i < ln && len(f.sel) < n; i++ {
		if f.keys[i] == win.key {
			f.sel = append(f.sel, i)
		}
	}
	return n, f.sel
}

// pickBucket is the bucketed rule: a bucket is ripe when it fills a batch or
// its head has waited Flush; the fullest ripe one wins, then the older head,
// then the smaller key (keys are unique, so the order of bs does not
// matter). It returns the winner's index and batch size, n == 0 if none.
func (f *Former) pickBucket(bs []bucketAgg, now float64) (best, n int) {
	for j := range bs {
		b, w := &bs[j], &bs[best]
		if b.count < f.Batch && now-b.headEnq < f.Flush {
			continue
		}
		if n == 0 || b.count > w.count || (b.count == w.count && (b.headEnq < w.headEnq || (b.headEnq == w.headEnq && b.key < w.key))) {
			best, n = j, min(f.Batch, b.count)
		}
	}
	return best, n
}

// formSorted keeps FIFO's ripeness (window fills a batch, or the head
// aged past Flush) but selects the length-sorted run with the least
// padding spread. When the head triggered the deadline it MUST ship —
// the batch is the run of sorted neighbors ending at the head's sorted
// position (the largest prompts not exceeding the head's own length, so
// the head sets the pad ceiling) — which is what makes the policy
// starvation-free: every member eventually becomes the head.
func (f *Former) formSorted(v FormView, now float64, ln int) (int, []int) {
	headRipe := now-v.EnqueuedAt(0) >= f.Flush
	if ln < f.Batch && !headRipe {
		return 0, nil
	}
	n := min(f.Batch, ln)
	f.ord = f.ord[:0]
	for i := 0; i < ln; i++ {
		pt := v.PromptTokens(i)
		if pt <= 0 {
			pt = f.DefaultPrompt
		}
		f.ord = append(f.ord, int64(pt)<<32|int64(i))
	}
	slices.Sort(f.ord)
	lo := 0
	if headRipe {
		p := 0
		for j, k := range f.ord {
			if k&0xffffffff == 0 {
				p = j
				break
			}
		}
		lo = p - n + 1
		if lo < 0 {
			lo = 0
		}
	}
	f.sel = f.sel[:0]
	for _, k := range f.ord[lo : lo+n] {
		f.sel = append(f.sel, int(k&0xffffffff))
	}
	slices.Sort(f.sel)
	return n, f.sel
}

// Former builds the prefix stage's batch-formation state machine from the
// compiled schedule. The caller sets Flush to its flush timeout and owns
// the instance (scratch is not shared across goroutines).
func (p *Plan) Former() Former {
	return Former{
		Policy:        p.Sched.FormPolicy,
		Batch:         p.Steps[p.PrefixIdx].Batch,
		DefaultPrompt: p.Pipe.Schema.PrefixTokens,
	}
}

// ChunkPrefill computes the chunked-prefill execution of one prefix
// batch: member i's prefill completes doneAt[i] seconds after the batch
// starts service. Prompts are effective member lengths in dispatch order
// (0 = schema constant); each member pads to the chunk quantum (not to
// the batch maximum — that is the whole point), the padded token stream
// is sliced into quantum-sized chunks, and chunks run back to back at the
// precompiled per-chunk latency. A member's first token unblocks as soon
// as ITS chunks are done — the TTFT pipelining chunked prefill buys —
// while the resource stays busy until the last chunk. doneAt is caller
// scratch (grown as needed); the returns are the (possibly regrown)
// scratch, the batch's total service time, and the effective/padded token
// totals for padding-waste accounting.
func (p *Plan) ChunkPrefill(prompts []int, doneAt []float64) ([]float64, float64, int, int) {
	q := p.Sched.ChunkQuantum
	doneAt = doneAt[:0]
	def := p.Pipe.Schema.PrefixTokens
	tok, chunks := 0, 0
	for _, pt := range prompts {
		if pt <= 0 {
			pt = def
		}
		tok += pt
		chunks += (pt + q - 1) / q
		doneAt = append(doneAt, float64(chunks)*p.ChunkLatency)
	}
	total := 0.0
	if len(doneAt) > 0 {
		total = doneAt[len(doneAt)-1]
	}
	return doneAt, total, tok, chunks * q
}
