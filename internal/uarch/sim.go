package uarch

import (
	"context"
	"fmt"
	"math"

	"rescue/internal/bpred"
	"rescue/internal/cache"
	"rescue/internal/isa"
	"rescue/internal/workload"
)

const never = math.MaxInt64 / 4

// wedgeCycles bounds the cycles Run waits for a commit before it declares
// the machine wedged. The longest legitimate gap is a few memory latencies
// (250 cycles, x1.5 per technology halving), far below this.
const wedgeCycles = 1 << 20

// ctxCheckMask sets how often RunContext looks at its context: once every
// 4,096 cycles, never per cycle.
const ctxCheckMask = 1<<12 - 1

// robEntry is one in-flight instruction. An entry is in flight while its
// seq is above Sim.retired (commit is in order and nothing flushes the
// ROB), and an issued entry has executed from the cycle after its
// doneCycle.
type robEntry struct {
	inst   isa.Inst
	seq    int64
	issued bool // selected from its issue queue; cleared by a shadow squash

	// producer links with sequence guards: a ROB slot may be recycled, so
	// a link is live only while its seq is still in flight
	src1Rob, src2Rob int
	src1Seq, src2Seq int64
	resultReady      int64 // cycle the result is available to consumers
	issueCycle       int64
	doneCycle        int64
	dataPend         bool // store issued before its data producer; commit re-checks
}

// halfQueue is one issue-queue half: rob indices, oldest first.
type halfQueue struct {
	entries []int
	cap     int
}

// iq models one issue queue (int or fp). Baseline: a single logical list
// (half boundary ignored except capacity). Rescue: two halves plus the
// compaction buffer between them.
type iq struct {
	old, new halfQueue
	buf      []int
	bufCap   int
	rescue   bool
	reqPrev  bool // old half had space at end of last cycle (cycle-split)
	deadHalf [2]bool
}

func (q *iq) size() int { return len(q.old.entries) + len(q.new.entries) + len(q.buf) }

func (q *iq) hasSpace() bool {
	if q.rescue {
		if q.deadHalf[1] {
			// new half dead: insert directly into the old half (the paper's
			// bypass of the new half)
			return !q.deadHalf[0] && len(q.old.entries) < q.old.cap
		}
		return len(q.new.entries) < q.new.cap
	}
	return q.size() < q.old.cap+q.new.cap
}

func (q *iq) insert(rob int) {
	if q.rescue {
		if q.deadHalf[1] {
			q.old.entries = append(q.old.entries, rob)
			return
		}
		q.new.entries = append(q.new.entries, rob)
		return
	}
	// baseline compacting queue: single age-ordered list, stored in old
	// then new for capacity bookkeeping
	if len(q.old.entries) < q.old.cap {
		q.old.entries = append(q.old.entries, rob)
	} else {
		q.new.entries = append(q.new.entries, rob)
	}
}

// Stats accumulates simulation results.
type Stats struct {
	Cycles       int64
	Committed    int64
	Fetched      int64
	Mispredicts  int64
	Replays      int64 // Rescue over-selection replays (instructions)
	ReplayEvents int64
	MissSquashes int64 // instructions squashed by L1-miss shadow
	L1DMisses    int64
	BranchCount  int64
	BTBRedirects int64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// Sim is one simulation instance.
type Sim struct {
	P     Params
	occ   Occupancy
	pred  *bpred.Predictor
	mem   *cache.Hierarchy
	gen   Source
	stats Stats

	rob                        []robEntry
	robHead, robTail, robCount int
	seq                        int64
	retired                    int64 // seq of the last committed instruction

	intQ, fpQ *iq

	// last in-flight writer of each architectural register (ROB index) or
	// -1; cleared when the instruction commits.
	producer [isa.NumRegs]int

	// frontend delay line: fetched instructions waiting to dispatch
	fline []flineEntry

	// LSQ: rob indices of in-flight memory ops, oldest first
	lsq    []int
	lsqCap int

	fetchPC        uint64
	fetchStallTill int64
	// mispredicted-branch redirect state: fetch halts from the moment a
	// mispredicted branch is fetched (no wrong-path modeling, the standard
	// trace-driven approximation) until it resolves in execute.
	mispredInFlight bool
	waitBranch      int // ROB index of the unresolved mispredicted branch, -1
	now             int64

	// issue log for L1-miss shadow squashes: issuedAt[cycle % W]
	issueLog  [][]int
	replayAlt int // alternation for the ReplayAll ablation

	// pending L1-miss discoveries: loads whose consumers were woken
	// speculatively at hit latency; at fix time the shadow is squashed and
	// the true latency installed
	missFix []missEvent
}

type missEvent struct {
	rob       int
	seq       int64
	fixCycle  int64
	trueReady int64
}

type flineEntry struct {
	inst    isa.Inst
	readyAt int64
	mispred bool
}

// Source produces the dynamic instruction stream a simulation consumes.
// workload.Gen implements it; trace.Reader replays recorded streams.
type Source interface {
	Next() isa.Inst
}

// New builds a simulator for one benchmark profile.
func New(p Params, prof workload.Profile) (*Sim, error) {
	return NewFromSource(p, workload.New(prof))
}

// NewFromSource builds a simulator over an arbitrary instruction source.
func NewFromSource(p Params, src Source) (*Sim, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Degr.Dead() {
		return nil, fmt.Errorf("uarch: configuration is dead: %v", p.Degr)
	}
	hc := cache.DefaultHierarchy()
	hc.MemLatency = int(float64(hc.MemLatency) * p.MemLatencyScale)
	s := &Sim{
		P:          p,
		pred:       bpred.New(bpred.Default()),
		mem:        cache.NewHierarchy(hc),
		gen:        src,
		rob:        make([]robEntry, p.ROBSize),
		lsqCap:     p.LSQSize - p.LSQSize/2*p.Degr.LSQHalvesDown,
		fetchPC:    0x1000,
		waitBranch: -1,
	}
	if p.BTBFaultFrac > 0 {
		if err := s.pred.EnableSelfHeal(p.BTBFaultFrac, p.BTBSpares, 1); err != nil {
			return nil, err
		}
	}
	mkq := func(size, halvesDown int) *iq {
		q := &iq{rescue: p.Rescue, bufCap: p.CompBufSlots}
		half := size / 2
		if p.Rescue {
			q.old.cap = half
			q.new.cap = half - p.CompBufSlots
			if halvesDown > 0 {
				// one half disabled: paper allows either half to die; we
				// model the new half as the dead one (old compacts from
				// rename directly). Capacity = one half.
				q.deadHalf[1] = true
			}
		} else {
			// baseline: one age-ordered compacting list
			q.old.cap = size
			q.new.cap = 0
		}
		return q
	}
	s.intQ = mkq(p.IntIQSize, p.Degr.IntIQHalvesDown)
	s.fpQ = mkq(p.FPIQSize, p.Degr.FPIQHalvesDown)
	for i := range s.producer {
		s.producer[i] = -1
	}
	w := p.SquashWindow + 2
	s.issueLog = make([][]int, w)
	for i := range s.issueLog {
		s.issueLog[i] = []int{}
	}
	return s, nil
}

// Run simulates until `commit` instructions have committed (after `warmup`
// committed instructions of stats-free warmup) and returns the statistics.
func (s *Sim) Run(warmup, commit int64) Stats {
	st, _ := s.RunContext(context.Background(), warmup, commit)
	return st
}

// RunContext is Run under cooperative cancellation: once ctx is done it
// stops within 4,096 cycles and returns the statistics so far with the
// context's cause.
func (s *Sim) RunContext(ctx context.Context, warmup, commit int64) (Stats, error) {
	target := warmup
	warm := true
	retired, retiredAt := s.retired, s.now
	for {
		s.cycle()
		if warm && s.stats.Committed >= target {
			// reset stats, keep microarchitectural state
			s.stats = Stats{}
			warm = false
			target = commit
		}
		if !warm && s.stats.Committed >= target {
			return s.stats, nil
		}
		if s.retired != retired {
			retired, retiredAt = s.retired, s.now
		} else if s.now-retiredAt > wedgeCycles {
			panic(fmt.Sprintf("uarch: simulation wedged: no commit in %d cycles", wedgeCycles))
		}
		if s.now&ctxCheckMask == 0 && ctx.Err() != nil {
			return s.stats, context.Cause(ctx)
		}
	}
}

// cycle advances one clock: commit, branch resolution, issue, queue
// maintenance, dispatch, fetch (reverse pipeline order so each stage sees
// last-cycle state of its upstream).
func (s *Sim) cycle() {
	s.now++
	s.stats.Cycles++
	s.occ.sample(s.intQ.size(), s.fpQ.size(), len(s.lsq), s.robCount)
	s.commit()
	s.resolveBranch()
	s.issue()
	s.queueMaint()
	s.dispatch()
	s.fetch()
}

// ---- commit ----

func (s *Sim) commit() {
	for n := 0; n < s.P.CommitWidth; n++ {
		if s.robCount == 0 {
			return
		}
		e := &s.rob[s.robHead]
		if !e.issued || e.doneCycle >= s.now {
			return // executes through its doneCycle; commit the cycle after
		}
		if e.dataPend && !s.srcReady(e.src2Rob, e.src2Seq) {
			return // store data not yet produced
		}
		// release LSQ slot
		if e.inst.Class.IsMem() {
			if len(s.lsq) > 0 && s.lsq[0] == s.robHead {
				s.lsq = s.lsq[1:]
			} else {
				// remove wherever it is (squash reordering)
				for i, r := range s.lsq {
					if r == s.robHead {
						s.lsq = append(s.lsq[:i], s.lsq[i+1:]...)
						break
					}
				}
			}
		}
		if d := e.inst.Dest; d != isa.RegNone && s.producer[d] == s.robHead {
			s.producer[d] = -1
		}
		s.retired = e.seq
		s.robHead = (s.robHead + 1) % len(s.rob)
		s.robCount--
		s.stats.Committed++
	}
}

// ---- branch resolution ----

// resolveBranch redirects fetch once the stalled mispredicted branch has
// executed. The branch cannot commit first: commit waits a cycle past its
// doneCycle.
func (s *Sim) resolveBranch() {
	if s.waitBranch < 0 {
		return
	}
	if e := &s.rob[s.waitBranch]; e.issued && e.doneCycle <= s.now {
		// redirect: fetch resumes (refill then costs FrontendDepth)
		s.fetchStallTill = s.now
		s.waitBranch = -1
		s.mispredInFlight = false
	}
}

// ---- issue ----

// fuBudget tracks per-class functional-unit slots for one cycle.
type fuBudget struct {
	alu, muldiv, mem, fpadd, fpmul int
}

func (s *Sim) fullBudget() fuBudget {
	intGroups := s.P.intWays() / 2
	fpGroups := s.P.fpWays() / 2
	return fuBudget{
		alu:    s.P.intWays(),
		muldiv: intGroups,
		mem:    intGroups, // one memory port per int backend group
		fpadd:  fpGroups,
		fpmul:  fpGroups,
	}
}

func (b *fuBudget) take(c isa.Class) bool {
	switch c {
	case isa.IntALU, isa.Branch, isa.NOP:
		if b.alu > 0 {
			b.alu--
			return true
		}
	case isa.IntMul, isa.IntDiv:
		if b.muldiv > 0 {
			b.muldiv--
			return true
		}
	case isa.Load, isa.Store:
		if b.mem > 0 {
			b.mem--
			return true
		}
	case isa.FPAdd:
		if b.fpadd > 0 {
			b.fpadd--
			return true
		}
	case isa.FPMul, isa.FPDiv:
		if b.fpmul > 0 {
			b.fpmul--
			return true
		}
	}
	return false
}

// srcReady reports whether a guarded producer link has produced its value.
func (s *Sim) srcReady(p int, seq int64) bool {
	if p < 0 || seq <= s.retired {
		return true // producer committed: value lives in the register file
	}
	return s.rob[p].resultReady <= s.now
}

// ready reports whether entry rob may be selected this cycle. Stores issue
// on address readiness alone (src1); their data (src2) is only needed by
// commit time, as in a real split store pipeline.
func (s *Sim) ready(rob int) bool {
	e := &s.rob[rob]
	if !s.srcReady(e.src1Rob, e.src1Seq) {
		return false
	}
	if e.inst.Class != isa.Store && !s.srcReady(e.src2Rob, e.src2Seq) {
		return false
	}
	if e.inst.Class == isa.Load {
		return s.loadMayIssue(rob)
	}
	return true
}

// loadMayIssue enforces memory disambiguation: every older store must have
// its address computed; a matching older store forwards.
func (s *Sim) loadMayIssue(rob int) bool {
	e := &s.rob[rob]
	for _, r := range s.lsq {
		if r == rob {
			break
		}
		se := &s.rob[r]
		if se.inst.Class == isa.Store && se.seq < e.seq && !se.issued {
			return false // address unknown
		}
	}
	return true
}

// loadForwards reports whether an older store to the same address is still
// in flight (store-to-load forwarding, no cache access).
func (s *Sim) loadForwards(rob int) bool {
	e := &s.rob[rob]
	for _, r := range s.lsq {
		if r == rob {
			break
		}
		se := &s.rob[r]
		if se.inst.Class == isa.Store && se.seq < e.seq &&
			se.inst.Addr/8 == e.inst.Addr/8 {
			return true
		}
	}
	return false
}

// selectHalf picks ready instructions from one half, oldest first, up to
// width and the FU budget. Returns the selected rob indices.
func (s *Sim) selectHalf(h *halfQueue, width int, budget *fuBudget) []int {
	var sel []int
	for _, rob := range h.entries {
		if len(sel) >= width {
			break
		}
		e := &s.rob[rob]
		if e.issued || !s.ready(rob) {
			continue
		}
		if !budget.take(e.inst.Class) {
			continue
		}
		sel = append(sel, rob)
	}
	return sel
}

func (s *Sim) issue() {
	// rotate the issue log: clear this cycle's slot (stale from len cycles
	// ago) before issueOne appends to it
	s.issueLog[int(s.now)%len(s.issueLog)] = s.issueLog[int(s.now)%len(s.issueLog)][:0]
	// process L1-miss discoveries due this cycle, before selection
	if len(s.missFix) > 0 {
		kept := s.missFix[:0]
		for _, ev := range s.missFix {
			if ev.seq <= s.retired {
				continue // load committed meanwhile
			}
			if ev.fixCycle > s.now {
				kept = append(kept, ev)
				continue
			}
			e := &s.rob[ev.rob]
			e.resultReady = ev.trueReady
			e.doneCycle = ev.trueReady
			s.squashShadow(ev.rob)
		}
		s.missFix = kept
	}
	s.issueQueue(s.intQ, s.P.intWays())
	s.issueQueue(s.fpQ, s.P.fpWays())
}

func (s *Sim) issueQueue(q *iq, ways int) {
	if ways <= 0 {
		return
	}
	width := s.P.IssueWidth
	if ways < width {
		width = ways
	}
	var toIssue []int
	if !s.P.Rescue {
		// baseline: global age-ordered selection across the whole queue
		budget := s.fullBudget()
		toIssue = s.selectHalf(&q.old, width, &budget)
	} else {
		// Rescue: each half selects independently under full constraints
		b0, b1 := s.fullBudget(), s.fullBudget()
		var sel0, sel1 []int
		if !q.deadHalf[0] {
			sel0 = s.selectHalf(&q.old, width, &b0)
		}
		if !q.deadHalf[1] {
			sel1 = s.selectHalf(&q.new, width, &b1)
		}
		over := len(sel0)+len(sel1) > width
		if !over {
			// combined FU check: re-run a shared budget over the union in
			// age order; overflow there also triggers replay
			budget := s.fullBudget()
			for _, rob := range append(append([]int{}, sel0...), sel1...) {
				if !budget.take(s.rob[rob].inst.Class) {
					over = true
					break
				}
			}
		}
		switch {
		case !over:
			toIssue = append(sel0, sel1...)
		case s.P.ReplayPolicy == OracleCombine:
			budget := s.fullBudget()
			merged := mergeByAge(s, sel0, sel1)
			for _, rob := range merged {
				if len(toIssue) >= width {
					break
				}
				if budget.take(s.rob[rob].inst.Class) {
					toIssue = append(toIssue, rob)
				}
			}
			s.stats.ReplayEvents++
		case s.P.ReplayPolicy == ReplayAll:
			s.stats.ReplayEvents++
			s.stats.Replays += int64(len(sel0) + len(sel1))
			// livelock breaker: next cycle only one half selects; model by
			// issuing nothing now and alternating a forced single half
			if s.replayAlt%2 == 0 {
				toIssue = sel0
				s.stats.Replays -= int64(len(sel0))
			} else {
				toIssue = sel1
				s.stats.Replays -= int64(len(sel1))
			}
			s.replayAlt++
		default: // ReplaySmallerHalf (the paper's policy)
			s.stats.ReplayEvents++
			if len(sel0) >= len(sel1) {
				toIssue = sel0
				s.stats.Replays += int64(len(sel1))
			} else {
				toIssue = sel1
				s.stats.Replays += int64(len(sel0))
			}
		}
	}
	for _, rob := range toIssue {
		s.issueOne(rob)
	}
}

func mergeByAge(s *Sim, a, b []int) []int {
	out := append(append([]int{}, a...), b...)
	// insertion sort by seq (tiny slices)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && s.rob[out[j]].seq < s.rob[out[j-1]].seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (s *Sim) issueOne(rob int) {
	e := &s.rob[rob]
	e.issued = true
	e.issueCycle = s.now
	lat := e.inst.Class.Latency()
	missDone := int64(-1)
	switch e.inst.Class {
	case isa.Load:
		if s.loadForwards(rob) {
			lat += 1 // store-to-load forward
			e.resultReady = s.now + int64(lat)
		} else {
			l, l1hit := s.mem.LoadLatency(e.inst.Addr)
			specReady := s.now + int64(lat+s.mem.L1D.Latency())
			if l1hit {
				e.resultReady = specReady
			} else {
				// load-hit speculation: consumers wake at hit timing; the
				// miss is discovered after the squash window, dependents
				// issued in the shadow are squashed, and the true latency
				// installed (Section 5 item 4: Rescue's extra shift stage
				// squashes one extra cycle)
				s.stats.L1DMisses++
				e.resultReady = specReady
				missDone = s.now + int64(lat+l)
				s.missFix = append(s.missFix, missEvent{
					rob:       rob,
					seq:       e.seq,
					fixCycle:  specReady + int64(s.P.SquashWindow),
					trueReady: missDone,
				})
			}
		}
	case isa.Store:
		// address generation; data only needed at commit — the store's
		// doneCycle stretches to cover the data producer below
		e.resultReady = s.now + int64(lat)
		if !s.srcReady(e.src2Rob, e.src2Seq) {
			pe := &s.rob[e.src2Rob]
			if pe.resultReady < never && pe.resultReady > e.resultReady {
				e.resultReady = pe.resultReady
			} else if pe.resultReady >= never {
				// data producer not even issued: retire the store's done
				// check to commit time via a conservative re-check there
				e.resultReady = s.now + int64(lat)
				e.dataPend = true
			}
		}
	case isa.Branch:
		e.resultReady = s.now + int64(lat)
	default:
		e.resultReady = s.now + int64(lat)
	}
	e.doneCycle = e.resultReady
	if missDone >= 0 {
		e.doneCycle = missDone // a missing load retires at its true latency
	}
	s.issueLog[int(s.now)%len(s.issueLog)] = append(s.issueLog[int(s.now)%len(s.issueLog)], rob)
}

// squashShadow implements the L1-miss shadow: instructions issued in the
// last SquashWindow cycles that (transitively) consumed the missing load's
// speculatively-broadcast result return to their queues (the Rescue design
// holds entries an extra cycle and squashes an extra cycle — Section 5
// item 4).
func (s *Sim) squashShadow(loadRob int) {
	squashed := map[int]bool{loadRob: true}
	depends := func(e *robEntry) bool {
		return e.src1Rob >= 0 && squashed[e.src1Rob] && e.src1Seq > s.retired ||
			e.src2Rob >= 0 && squashed[e.src2Rob] && e.src2Seq > s.retired
	}
	for back := s.P.SquashWindow; back >= 0; back-- {
		c := s.now - int64(back)
		if c < 0 {
			continue
		}
		lst := s.issueLog[int(c)%len(s.issueLog)]
		for _, rob := range lst {
			e := &s.rob[rob]
			// skip entries squashed, executed (committed ones included) or
			// recycled since
			if !e.issued || e.doneCycle <= s.now || e.issueCycle != c || rob == loadRob {
				continue
			}
			if e.inst.Class.IsMem() || e.inst.Class == isa.Branch {
				continue // memory ops and branches are not replayed
			}
			if !depends(e) {
				continue
			}
			squashed[rob] = true
			e.issued = false
			e.resultReady = never
			s.stats.MissSquashes++
		}
	}
}

// ---- queue maintenance (Rescue segmented compaction) ----

func (s *Sim) queueMaint() {
	s.cleanQueue(s.intQ)
	s.cleanQueue(s.fpQ)
	if s.P.Rescue {
		s.compact(s.intQ)
		s.compact(s.fpQ)
	}
}

// cleanQueue removes issued entries whose hold window has elapsed, and
// entries that committed within it. The compaction buffer needs no
// cleaning: nothing issues from it.
func (s *Sim) cleanQueue(q *iq) {
	hold := int64(s.P.SquashWindow)
	rm := func(h *halfQueue) {
		out := h.entries[:0]
		for _, rob := range h.entries {
			e := &s.rob[rob]
			if e.seq <= s.retired || e.issued && s.now-e.issueCycle >= hold {
				continue // entry leaves the queue
			}
			out = append(out, rob)
		}
		h.entries = out
	}
	rm(&q.old)
	rm(&q.new)
}

// compact performs the cycle-split inter-segment movement: buffer contents
// drop into the old half; then, if the old half had space last cycle (the
// latched request), the new half's oldest entries move into the buffer.
func (s *Sim) compact(q *iq) {
	if q.deadHalf[1] || q.deadHalf[0] {
		return // single-half operation: no inter-segment traffic
	}
	// buffer -> old
	for len(q.buf) > 0 && len(q.old.entries) < q.old.cap {
		q.old.entries = append(q.old.entries, q.buf[0])
		q.buf = q.buf[1:]
	}
	// new -> buffer (only if old requested last cycle; the request is a
	// latched, cycle-old view — the ICI cycle split)
	if q.reqPrev {
		for len(q.buf) < q.bufCap && len(q.new.entries) > 0 {
			// only move entries that are still waiting (issued ones must
			// stay put for their hold window)
			rob := q.new.entries[0]
			if s.rob[rob].issued {
				break
			}
			q.buf = append(q.buf, rob)
			q.new.entries = q.new.entries[1:]
		}
	}
	q.reqPrev = len(q.old.entries) < q.old.cap
}

// ---- dispatch ----

func (s *Sim) dispatch() {
	width := s.P.feWidth()
	for n := 0; n < width; n++ {
		if len(s.fline) == 0 {
			return
		}
		f := s.fline[0]
		if f.readyAt > s.now {
			return
		}
		if s.robCount >= len(s.rob) {
			s.occ.DispatchStallROB++
			return
		}
		inst := f.inst
		var q *iq
		switch {
		case inst.Class.IsMem():
			q = s.intQ // memory ops issue from the int queue (AGU)
			if len(s.lsq) >= s.lsqCap {
				s.occ.DispatchStallLSQ++
				return
			}
		case inst.Class.IsFP():
			q = s.fpQ
		default:
			q = s.intQ
		}
		if !q.hasSpace() {
			s.occ.DispatchStallIQ++
			return
		}
		// allocate ROB
		rob := s.robTail
		s.robTail = (s.robTail + 1) % len(s.rob)
		s.robCount++
		s.seq++
		e := &s.rob[rob]
		*e = robEntry{inst: inst, seq: s.seq, resultReady: never,
			src1Rob: -1, src2Rob: -1}
		// producer holds only in-flight writers: commit clears its own slot
		if inst.Src1 != isa.RegNone {
			if p := s.producer[inst.Src1]; p >= 0 {
				e.src1Rob, e.src1Seq = p, s.rob[p].seq
			}
		}
		if inst.Src2 != isa.RegNone {
			if p := s.producer[inst.Src2]; p >= 0 {
				e.src2Rob, e.src2Seq = p, s.rob[p].seq
			}
		}
		if inst.Dest != isa.RegNone {
			s.producer[inst.Dest] = rob
		}
		if inst.Class.IsMem() {
			s.lsq = append(s.lsq, rob)
		}
		if f.mispred {
			s.waitBranch = rob
		}
		q.insert(rob)
		s.fline = s.fline[1:]
	}
}

// ---- fetch ----

func (s *Sim) fetch() {
	if s.mispredInFlight || s.now < s.fetchStallTill {
		return
	}
	if len(s.fline) > s.P.FrontendDepth*s.P.Ways {
		return // frontend back-pressure
	}
	width := s.P.feWidth()
	// i-cache access for this fetch group
	ilat := s.mem.FetchLatency(s.fetchPC)
	extra := int64(0)
	if ilat > 2 {
		// fetch stalls for the miss duration
		s.fetchStallTill = s.now + int64(ilat)
		extra = int64(ilat)
	}
	for n := 0; n < width; n++ {
		inst := s.gen.Next()
		inst.PC = s.fetchPC
		s.stats.Fetched++
		fe := flineEntry{inst: inst, readyAt: s.now + int64(s.P.FrontendDepth) + extra}
		btbRedirect := false
		if inst.Class == isa.Branch {
			s.stats.BranchCount++
			predTaken := s.pred.PredictDirection(inst.PC)
			tgt, btbHit := s.pred.PredictTarget(inst.PC)
			// train at fetch: updates are in program order (no wrong path
			// is modeled), keeping the global history exact and predictor
			// accuracy independent of pipeline depth — the standard
			// trace-driven approximation
			s.pred.Update(inst.PC, inst.Taken, inst.Target)
			if predTaken != inst.Taken {
				// direction mispredict: full penalty, resolved at execute
				fe.mispred = true
				s.stats.Mispredicts++
			} else if inst.Taken && (!btbHit || tgt != inst.Target) {
				// correct direction, wrong/missing target: the target is
				// recomputed in decode — a short frontend redirect bubble
				btbRedirect = true
				s.stats.BTBRedirects++
			}
		}
		s.fline = append(s.fline, fe)
		s.fetchPC = inst.NextPC()
		if fe.mispred {
			s.mispredInFlight = true // fetch halts until resolution
			return
		}
		if btbRedirect {
			s.fetchStallTill = s.now + 3
			return
		}
		if inst.Class == isa.Branch && inst.Taken {
			return // fetch stops at a taken branch
		}
	}
}
