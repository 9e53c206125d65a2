package engine

// Tally is the one account of a run, which the simulator, the controller's
// replay and the live server all read. Built beside the run's Ledger, it
// counts what each epoch's Core reports to Epoch(i) with integer adds plus
// one append per completion. Not safe for concurrent use: a driver that lets
// readers in mid-run wraps the epoch sinks in its own lock.
type Tally struct {
	// Slots counts each stage slot's batching (Plan.NumSlots entries).
	Slots []SlotCount

	run                       Count
	epochs                    []*tallyEpoch
	done                      []float64
	sumTTFT, sumLat, sumStall float64
	decodeIdx                 int
}

// Count is a Tally's account of a run or of one epoch: its arrivals by
// admission verdict (Admitted minus Completed are in flight), its
// completions, their span in virtual time (0 without one) and the completion
// rate over that span.
type Count struct {
	Admitted, Rejected, Completed int
	FirstDone, LastDone, QPS      float64
}

// SlotCount is a Tally's account of one stage slot: its dispatched batches,
// their members and configured sizes, their effective and padded prompt
// tokens, its chunked batches and their chunks, and its deepest queue
// within an epoch and its current one (at the decode slot, the sequences
// holding or awaiting a slot).
type SlotCount struct {
	Batches, Formed, Full int
	Tok, Pad              int64
	Chunked, Chunks       int
	Peak, Live            int
}

// Fill is the slot's mean formed batch size over its configured size.
func (s SlotCount) Fill() float64 { return ratio(float64(s.Formed), float64(s.Full)) }

// PadWaste is the share of the slot's padded prompt tokens spent padding
// members to their batch's maximum (0 where no shaped batch ran).
func (s SlotCount) PadWaste() float64 {
	if s.Pad == 0 {
		return 0
	}
	return 1 - float64(s.Tok)/float64(s.Pad)
}

// Summary is a run's headline numbers: its Count, its steady rate
// (SteadyRate), the mean TTFT, latency and §5.3 decode-loop stall of its
// completions, the padding waste over every slot and the mean chunks per
// chunked prefill batch.
type Summary struct {
	Count
	SteadyQPS, MeanTTFT, MeanLatency, MeanStall, PadWaste, MeanChunks float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// NewTally sizes a tally for n requests under plan p's stage graph.
func NewTally(p *Plan, n int) *Tally {
	return &Tally{Slots: make([]SlotCount, p.NumSlots()), done: make([]float64, 0, n), decodeIdx: p.DecodeIdx}
}

// Epoch returns the Sink of the run's epoch i, numbered in Loop order.
func (t *Tally) Epoch(i int) Sink {
	for len(t.epochs) <= i {
		t.epochs = append(t.epochs, &tallyEpoch{t: t})
	}
	return t.epochs[i]
}

// Total is the run's Count.
func (t *Tally) Total() Count { return t.run.rated() }

// EpochCount is epoch i's Count (zero for an epoch that never reported).
func (t *Tally) EpochCount(i int) Count {
	if i >= len(t.epochs) {
		return Count{}
	}
	return t.epochs[i].c.rated()
}

// Done returns the completion times in virtual order (the tally's slice).
func (t *Tally) Done() []float64 { return t.done }

// Summary assembles the run's headline numbers.
func (t *Tally) Summary() Summary {
	s := Summary{Count: t.Total(), SteadyQPS: t.SteadyRate()}
	n := float64(s.Completed)
	s.MeanTTFT, s.MeanLatency, s.MeanStall = ratio(t.sumTTFT, n), ratio(t.sumLat, n), ratio(t.sumStall, n)
	var all SlotCount
	for _, sl := range t.Slots {
		all.Tok += sl.Tok
		all.Pad += sl.Pad
		all.Chunked += sl.Chunked
		all.Chunks += sl.Chunks
	}
	s.PadWaste, s.MeanChunks = all.PadWaste(), ratio(float64(all.Chunks), float64(all.Chunked))
	return s
}

// rated returns c with its QPS, the one definition of a sustained rate:
// completions after the first over the span from the first to the last. It
// is 0 with fewer than two completions or a zero span.
func (c Count) rated() Count {
	if c.Completed >= 2 && c.LastDone > c.FirstDone {
		c.QPS = float64(c.Completed-1) / (c.LastDone - c.FirstDone)
	}
	return c
}

// SteadyRate is the run's peak completions per second over any
// quarter-span window anchored at a completion. Unlike Total().QPS it
// sits inside the saturated middle of a run whose span is mostly warmup ramp
// and drain tail, as when huge decode batches complete in a few clumps. It
// is 0 with fewer than three completions or a zero span.
func (t *Tally) SteadyRate() float64 {
	s := t.done
	if len(s) < 3 || s[len(s)-1] <= s[0] {
		return 0
	}
	last := s[len(s)-1]
	w := (last - s[0]) / 4
	best, j := 0.0, 0
	for i := range s {
		if s[i]+w > last {
			break // the window would hang past the last completion
		}
		j = max(j, i)
		for j < len(s) && s[j] <= s[i]+w {
			j++
		}
		best = max(best, float64(j-i)/w)
	}
	return best
}

// tallyEpoch is one epoch's Sink: it counts into the epoch's Count and the
// run's.
type tallyEpoch struct {
	t *Tally
	c Count
}

func (e *tallyEpoch) Arrived(_ int, admitted bool) {
	if admitted {
		e.c.Admitted++
		e.t.run.Admitted++
	} else {
		e.c.Rejected++
		e.t.run.Rejected++
	}
}

func (e *tallyEpoch) Enqueued(_, slot, depth int) {
	sl := &e.t.Slots[slot]
	sl.Peak = max(sl.Peak, depth)
	sl.Live++
}

func (e *tallyEpoch) Dispatched(_ int, b Batch, c BatchCost, _ float64) {
	sl, n := &e.t.Slots[b.Slot], len(b.Members)
	sl.Batches++
	sl.Formed += n
	sl.Full += b.full
	sl.Live -= n
	sl.Tok += int64(c.Tok)
	sl.Pad += int64(c.Pad)
	if c.Chunks > 0 {
		sl.Chunked++
		sl.Chunks += c.Chunks
	}
}

func (e *tallyEpoch) Completed(_ int, c Completion) {
	t := e.t
	e.c.complete(c.At)
	t.run.complete(c.At)
	t.done = append(t.done, c.At)
	t.sumTTFT += c.TTFT
	t.sumLat += c.Latency
	t.sumStall += c.Stall
	if !c.Hit {
		t.Slots[t.decodeIdx].Live--
	}
}

func (c *Count) complete(at float64) {
	if c.Completed == 0 {
		c.FirstDone = at
	}
	c.Completed++
	c.LastDone = at
}
