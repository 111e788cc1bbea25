package atpg

import (
	"slices"

	"rescue/internal/netlist"
)

// podem is the working state of PODEM on one netlist. Its arrays are
// sized once and reused fault after fault: run resets them for the next
// fault.
type podem struct {
	n      *netlist.Netlist
	v      *netlist.View // the netlist's levelized gate arrays
	fault  netlist.Fault
	stuck  V3            // the fault's stuck value
	faultQ netlist.NetID // the faulted FF's Q net, or InvalidNet for a gate fault

	// pis lists the controllable points: primary inputs then FF Q nets.
	pis []netlist.NetID
	// piIndex maps net -> index in pis, or -1.
	piIndex []int
	// assign holds the current PI decisions (X = unassigned); set is its
	// one writer and records each changed PI in dirty for the next imply.
	assign []V3
	dirty  []int

	good, bad []V3 // per-net planes
	goodX     []V3 // the good plane with every PI unassigned

	// The fault's fan-out cone: the gates reachable from the fault site,
	// the only ones whose faulty-plane value can differ from the good one.
	// Every other net has bad == good.
	cone    []netlist.GateID // ascending gate ID
	inCone  []bool           // per gate
	coneObs []netlist.NetID  // observed nets an error can reach

	// Event-driven implication: per-level buckets of gates to evaluate.
	queued  []bool // per gate
	buckets [][]netlist.GateID

	// dFrontier's result, valid until the next imply.
	frontier   []netlist.GateID
	frontierOK bool

	// xPathExists scratch: gate g is visited when seen[g] == seenEp.
	seen   []uint32
	seenEp uint32
	walk   []netlist.GateID

	decisions     []decision
	backtracks    int
	maxBacktracks int
}

// Cube is a generated test cube: per-PI three-valued assignments (primary
// inputs first, then FF scan cells, matching podem.pis order).
type Cube struct {
	PI []V3 // len = len(netlist.Inputs)
	FF []V3 // len = NumFFs
}

// PodemResult classifies a PODEM run.
type PodemResult int

// PODEM outcomes.
const (
	Detected PodemResult = iota
	Untestable
	Aborted
)

func (r PodemResult) String() string {
	switch r {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	default:
		return "aborted"
	}
}

// Podem attempts to generate a test for fault f on n. maxBacktracks bounds
// the search (typical production values are 10-100).
func Podem(n *netlist.Netlist, f netlist.Fault, maxBacktracks int) (Cube, PodemResult) {
	return newPodem(n).run(f, maxBacktracks)
}

// newPodem sizes the working state for n and computes the all-X good
// plane, the one full implication pass every run starts from.
func newPodem(n *netlist.Netlist) *podem {
	v := n.View()
	nGates, nNets := len(v.Out), n.NumNets()
	p := &podem{n: n, v: v}
	p.pis = make([]netlist.NetID, 0, len(n.Inputs)+n.NumFFs())
	p.pis = append(p.pis, n.Inputs...)
	for i := range n.FFs {
		p.pis = append(p.pis, n.FFs[i].Q)
	}
	p.piIndex = make([]int, nNets)
	for i := range p.piIndex {
		p.piIndex[i] = -1
	}
	for i, net := range p.pis {
		p.piIndex[net] = i
	}
	p.assign = make([]V3, len(p.pis))
	p.good = make([]V3, nNets)
	p.bad = make([]V3, nNets)
	p.goodX = make([]V3, nNets)
	for _, g := range v.Order {
		p.goodX[v.Out[g]] = p.eval3(p.goodX, g, -1)
	}
	p.inCone = make([]bool, nGates)
	p.queued = make([]bool, nGates)
	p.buckets = make([][]netlist.GateID, v.MaxLevel+1)
	p.seen = make([]uint32, nGates)
	return p
}

// run generates a test for fault f, reusing p's arrays.
func (p *podem) run(f netlist.Fault, maxBacktracks int) (Cube, PodemResult) {
	p.reset(f, maxBacktracks)
	ok, aborted := p.search()
	switch {
	case ok:
		n := p.n
		cube := Cube{PI: make([]V3, len(n.Inputs)), FF: make([]V3, n.NumFFs())}
		copy(cube.PI, p.assign[:len(n.Inputs)])
		copy(cube.FF, p.assign[len(n.Inputs):])
		return cube, Detected
	case aborted:
		return Cube{}, Aborted
	default:
		return Cube{}, Untestable
	}
}

// reset readies p for fault f with every PI unassigned: both planes
// start from the all-X good plane, the fault's cone is computed, and the
// fault site is implied into the faulty plane.
func (p *podem) reset(f netlist.Fault, maxBacktracks int) {
	p.fault, p.stuck, p.maxBacktracks, p.backtracks = f, saVal(f.StuckAt1), maxBacktracks, 0
	p.faultQ = netlist.InvalidNet
	if f.Gate < 0 && f.FF >= 0 {
		p.faultQ = p.n.FFs[f.FF].Q
	}
	clear(p.assign)
	p.dirty = p.dirty[:0]
	copy(p.good, p.goodX)
	copy(p.bad, p.goodX)
	p.buildCone()
	switch {
	case f.Gate >= 0:
		p.enqueue(f.Gate)
	case p.faultQ != netlist.InvalidNet:
		p.bad[p.faultQ] = p.stuck
		p.schedule(p.faultQ)
	}
	p.imply()
}

// buildCone collects the gates reachable from the fault site — for a gate
// fault the faulty gate and everything its output reaches, for an FF
// fault everything its Q reaches — and the observed nets among their
// outputs (and Q).
func (p *podem) buildCone() {
	v := p.v
	for _, g := range p.cone {
		p.inCone[g] = false
	}
	p.cone, p.coneObs = p.cone[:0], p.coneObs[:0]
	add := func(net netlist.NetID) {
		for _, r := range v.Rdrs[v.RdrOff[net]:v.RdrOff[net+1]] {
			if !p.inCone[r] {
				p.inCone[r] = true
				p.cone = append(p.cone, r)
			}
		}
	}
	switch {
	case p.fault.Gate >= 0:
		p.inCone[p.fault.Gate] = true
		p.cone = append(p.cone, p.fault.Gate)
	case p.faultQ != netlist.InvalidNet:
		add(p.faultQ)
		if v.ObsHead[p.faultQ] >= 0 {
			p.coneObs = append(p.coneObs, p.faultQ)
		}
	}
	for i := 0; i < len(p.cone); i++ {
		out := v.Out[p.cone[i]]
		if v.ObsHead[out] >= 0 {
			p.coneObs = append(p.coneObs, out)
		}
		add(out)
	}
	slices.Sort(p.cone)
}

type decision struct {
	pi        int
	value     V3
	triedBoth bool
}

// set assigns PI pi (X unassigns it), to be implied by the next imply.
func (p *podem) set(pi int, val V3) {
	p.assign[pi] = val
	p.dirty = append(p.dirty, pi)
}

// search runs the PODEM decision loop. Returns (found, aborted).
func (p *podem) search() (bool, bool) {
	stack := p.decisions[:0]
	defer func() { p.decisions = stack[:0] }()
	for {
		p.imply()
		if p.errorAtOutput() {
			return true, false
		}
		feasible := p.feasible()
		if feasible {
			net, val, ok := p.objective()
			if ok {
				pi, pv := p.backtrace(net, val)
				if pi >= 0 {
					stack = append(stack, decision{pi: pi, value: pv})
					p.set(pi, pv)
					continue
				}
			}
			// no objective or backtrace dead-ends: treat as infeasible
		}
		// backtrack
		flipped := false
		for len(stack) > 0 {
			d := &stack[len(stack)-1]
			if !d.triedBoth {
				d.triedBoth = true
				d.value = not3(d.value)
				p.set(d.pi, d.value)
				p.backtracks++
				flipped = true
				break
			}
			p.set(d.pi, X)
			stack = stack[:len(stack)-1]
		}
		if !flipped {
			return false, false // exhausted: untestable
		}
		if p.backtracks > p.maxBacktracks {
			return false, true
		}
	}
}

// imply brings both planes up to date with the PI assignments. Forward
// implication is a pure function of the assignment, so re-evaluating only
// what a change reaches gives the full pass's result on every net: the
// PIs set since the last call are written into the planes, then gates are
// evaluated level by level from the readers of every net whose good or
// faulty value changed.
func (p *podem) imply() {
	p.frontierOK = false
	for _, pi := range p.dirty {
		net := p.pis[pi]
		good, bad := p.assign[pi], p.assign[pi]
		if net == p.faultQ {
			bad = p.stuck // a faulted Q reads the stuck value
		}
		if good != p.good[net] || bad != p.bad[net] {
			p.good[net], p.bad[net] = good, bad
			p.schedule(net)
		}
	}
	p.dirty = p.dirty[:0]
	v, f := p.v, p.fault
	for lv := range p.buckets {
		// A gate's readers sit on higher levels, so this bucket does not
		// grow while it drains.
		for _, g := range p.buckets[lv] {
			p.queued[g] = false
			good := p.eval3(p.good, g, -1)
			bad := good // outside the cone the planes agree
			switch {
			case !p.inCone[g]:
			case g != f.Gate:
				bad = p.eval3(p.bad, g, -1)
			case f.Pin >= 0:
				bad = p.eval3(p.bad, g, f.Pin)
			default:
				bad = p.stuck
			}
			if out := v.Out[g]; good != p.good[out] || bad != p.bad[out] {
				p.good[out], p.bad[out] = good, bad
				p.schedule(out)
			}
		}
		p.buckets[lv] = p.buckets[lv][:0]
	}
}

// schedule queues every gate reading net.
func (p *podem) schedule(net netlist.NetID) {
	v := p.v
	for _, g := range v.Rdrs[v.RdrOff[net]:v.RdrOff[net+1]] {
		p.enqueue(g)
	}
}

// enqueue queues gate g for evaluation at its level, once.
func (p *podem) enqueue(g netlist.GateID) {
	if !p.queued[g] {
		p.queued[g] = true
		lv := p.v.Level[g]
		p.buckets[lv] = append(p.buckets[lv], g)
	}
}

func saVal(sa1 bool) V3 {
	if sa1 {
		return One
	}
	return Zero
}

// eval3 is the three-valued gate evaluator: gate g of the view over one
// value plane. A stuck input pin (pin >= 0) reads the fault's stuck value
// instead of its net. Unfaulted gates of the common arities (1-, 2-input,
// 3-input mux) are dispatched without building an input slice.
func (p *podem) eval3(plane []V3, g netlist.GateID, pin int) V3 {
	v := p.v
	lo, hi := v.PinOff[g], v.PinOff[g+1]
	k := v.Kind[g]
	if pin < 0 {
		switch hi - lo {
		case 1:
			switch k {
			case netlist.Buf:
				return plane[v.Pins[lo]]
			case netlist.Not:
				return not3(plane[v.Pins[lo]])
			}
		case 2:
			a, b := plane[v.Pins[lo]], plane[v.Pins[lo+1]]
			switch k {
			case netlist.And:
				return and3(a, b)
			case netlist.Nand:
				return not3(and3(a, b))
			case netlist.Or:
				return or3(a, b)
			case netlist.Nor:
				return not3(or3(a, b))
			case netlist.Xor:
				return xor3(a, b)
			case netlist.Xnor:
				return not3(xor3(a, b))
			}
		case 3:
			if k == netlist.Mux2 {
				return mux3(plane[v.Pins[lo]], plane[v.Pins[lo+1]], plane[v.Pins[lo+2]])
			}
		}
	}
	var buf [8]V3
	ins := buf[:0]
	for _, in := range v.Pins[lo:hi] {
		ins = append(ins, plane[in])
	}
	if pin >= 0 {
		ins[pin] = p.stuck
	}
	var out V3
	switch k {
	case netlist.And, netlist.Nand:
		out = One
		for _, x := range ins {
			out = and3(out, x)
		}
	case netlist.Or, netlist.Nor:
		out = Zero
		for _, x := range ins {
			out = or3(out, x)
		}
	case netlist.Xor, netlist.Xnor:
		out = Zero
		for _, x := range ins {
			out = xor3(out, x)
		}
	case netlist.Not:
		out = not3(ins[0])
	case netlist.Buf:
		out = ins[0]
	case netlist.Mux2:
		out = mux3(ins[0], ins[1], ins[2])
	case netlist.Const0:
		out = Zero
	case netlist.Const1:
		out = One
	}
	if k == netlist.Nand || k == netlist.Nor || k == netlist.Xnor {
		out = not3(out)
	}
	return out
}

// pins returns gate g's input nets.
func (p *podem) pins(g netlist.GateID) []netlist.NetID {
	return p.v.Pins[p.v.PinOff[g]:p.v.PinOff[g+1]]
}

// isError reports whether net carries D or D'.
func (p *podem) isError(net netlist.NetID) bool {
	g, b := p.good[net], p.bad[net]
	return g != X && b != X && g != b
}

// errorAtOutput reports whether an error reached an observation point.
func (p *podem) errorAtOutput() bool {
	for _, net := range p.coneObs {
		if p.isError(net) {
			return true
		}
	}
	// FF-output faults are observed directly on scan-out of the faulty cell
	if p.faultQ != netlist.InvalidNet {
		d := p.n.FFs[p.fault.FF].D
		if p.good[d] != X && p.good[d] != p.stuck {
			return true
		}
	}
	return false
}

// siteLine returns the net whose good value activates the fault.
func (p *podem) siteLine() netlist.NetID {
	f := p.fault
	switch {
	case f.Gate >= 0 && f.Pin >= 0:
		return p.pins(f.Gate)[f.Pin]
	case f.Gate >= 0:
		return p.v.Out[f.Gate]
	default:
		return p.n.FFs[f.FF].D // activation for FF faults: capture opposite value
	}
}

// feasible checks whether the current partial assignment can still lead to
// detection: the fault can still be activated, and if activated, an X-path
// exists from the D-frontier to an observation point.
func (p *podem) feasible() bool {
	f := p.fault
	// activation still possible?
	line := p.siteLine()
	want := not3(p.stuck)
	if f.Gate >= 0 {
		if p.good[line] != X && p.good[line] != want {
			return false
		}
	} else {
		// FF fault: D capture or combinational propagation from Q
		dNet := p.n.FFs[f.FF].D
		if p.good[dNet] != X && p.good[dNet] != want {
			// direct capture observation blocked; combinational path from Q
			// may still work — fall through to frontier check
			if len(p.dFrontier()) == 0 && !p.errorAtOutput() {
				return false
			}
		}
		return true
	}
	// If error exists somewhere, require an X-path to an output.
	if p.anyError() {
		return p.xPathExists()
	}
	return true
}

// anyError reports whether some net carries an error. Only the cone's
// outputs and a faulted Q can.
func (p *podem) anyError() bool {
	for _, g := range p.cone {
		if p.isError(p.v.Out[g]) {
			return true
		}
	}
	return p.faultQ != netlist.InvalidNet && p.isError(p.faultQ)
}

// dFrontier returns gates with an error on some input and a non-error,
// not-fully-determined output, in ascending gate ID. A gate reading an
// error is in the cone, so the cone is all it scans. The slice is reused
// and valid until the next imply.
func (p *podem) dFrontier() []netlist.GateID {
	if p.frontierOK {
		return p.frontier
	}
	p.frontier = p.frontier[:0]
	for _, g := range p.cone {
		o := p.v.Out[g]
		if p.isError(o) {
			continue
		}
		if p.good[o] != X && p.bad[o] != X {
			continue // fully determined, error cannot appear anymore
		}
		for _, in := range p.pins(g) {
			if p.isError(in) {
				p.frontier = append(p.frontier, g)
				break
			}
		}
	}
	p.frontierOK = true
	return p.frontier
}

// xPathExists checks structural reachability from any error net or
// D-frontier gate to an observation point through nets that are not fully
// determined.
func (p *podem) xPathExists() bool {
	// error directly at an obs point counts
	if p.errorAtOutput() {
		return true
	}
	frontier := p.dFrontier()
	if len(frontier) == 0 {
		return false
	}
	p.seenEp++
	if p.seenEp == 0 { // wrapped: forget every old stamp
		clear(p.seen)
		p.seenEp = 1
	}
	v := p.v
	stack := append(p.walk[:0], frontier...)
	defer func() { p.walk = stack[:0] }()
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.seen[g] == p.seenEp {
			continue
		}
		p.seen[g] = p.seenEp
		out := v.Out[g]
		if v.ObsHead[out] >= 0 {
			return true
		}
		if p.good[out] != X && p.bad[out] != X && !p.isError(out) {
			continue // blocked: fully determined without error
		}
		stack = append(stack, v.Rdrs[v.RdrOff[out]:v.RdrOff[out+1]]...)
	}
	return false
}

// objective picks the next (net, value) goal: activate the fault if not
// yet activated, otherwise advance a D-frontier gate.
func (p *podem) objective() (netlist.NetID, V3, bool) {
	f := p.fault
	want := not3(p.stuck)
	line := p.siteLine()
	// Activate first. For an FF fault the goal is to capture the opposite
	// value into the cell (propagating combinationally from Q would also
	// do; the capture goal is the simple one).
	if p.good[line] == X {
		return line, want, true
	}
	// Input-pin faults: once the pin line is activated the divergence lives
	// inside the faulty gate, which the D-frontier (a net-level notion)
	// cannot see. Sensitize the faulty gate by setting its other X inputs
	// to non-controlling values.
	if f.Gate >= 0 && f.Pin >= 0 && p.good[line] == want {
		kind, out := p.v.Kind[f.Gate], p.v.Out[f.Gate]
		if !p.isError(out) && (p.good[out] == X || p.bad[out] == X) {
			nc, has := nonControlling(kind)
			for pin, in := range p.pins(f.Gate) {
				if pin == f.Pin || p.good[in] != X {
					continue
				}
				if kind == netlist.Mux2 && pin == 0 {
					// route the faulty data pin through the mux
					if f.Pin == 1 {
						return in, Zero, true
					}
					return in, One, true
				}
				if has {
					return in, nc, true
				}
				return in, Zero, true
			}
		}
	}
	frontier := p.dFrontier()
	for _, gi := range frontier {
		kind, ins := p.v.Kind[gi], p.pins(gi)
		// set an X input to the gate's non-controlling value
		nc, has := nonControlling(kind)
		for pin, in := range ins {
			if p.good[in] == X {
				if kind == netlist.Mux2 && pin == 0 {
					// select the data input carrying the error
					for di := 1; di <= 2; di++ {
						if p.isError(ins[di]) {
							if di == 1 {
								return in, Zero, true
							}
							return in, One, true
						}
					}
					return in, Zero, true
				}
				if has {
					return in, nc, true
				}
				// XOR-family: any definite value sensitizes
				return in, Zero, true
			}
		}
	}
	return 0, X, false
}

// nonControlling returns the non-controlling input value of a gate kind.
func nonControlling(k netlist.GateKind) (V3, bool) {
	switch k {
	case netlist.And, netlist.Nand:
		return One, true
	case netlist.Or, netlist.Nor:
		return Zero, true
	}
	return X, false
}

// backtrace walks an objective back to an unassigned PI, returning the PI
// index and value (or -1 if no X input path exists).
func (p *podem) backtrace(net netlist.NetID, val V3) (int, V3) {
	for hops := 0; hops < p.n.NumNets()+4; hops++ {
		if pi := p.piIndex[net]; pi >= 0 {
			if p.assign[pi] != X {
				return -1, X // already assigned; objective unreachable
			}
			return pi, val
		}
		gid := p.n.DriverGate(net)
		if gid < 0 {
			return -1, X // FF D as objective shouldn't occur outside obs
		}
		kind, ins := p.v.Kind[gid], p.pins(gid)
		switch kind {
		case netlist.Not:
			net, val = ins[0], not3(val)
		case netlist.Buf:
			net = ins[0]
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			inv := kind == netlist.Nand || kind == netlist.Nor
			target := val
			if inv {
				target = not3(val)
			}
			// choose an X input: if target is the controlling value one X
			// input suffices; otherwise all inputs need the non-controlling
			// value — either way descending into the first X input works.
			next := netlist.InvalidNet
			for _, in := range ins {
				if p.good[in] == X {
					next = in
					break
				}
			}
			if next == netlist.InvalidNet {
				return -1, X
			}
			net, val = next, target
		case netlist.Xor, netlist.Xnor:
			target := val
			if kind == netlist.Xnor {
				target = not3(val)
			}
			// parity of known inputs
			parity := Zero
			next := netlist.InvalidNet
			for _, in := range ins {
				if p.good[in] == X {
					if next == netlist.InvalidNet {
						next = in
					}
				} else {
					parity = xor3(parity, p.good[in])
				}
			}
			if next == netlist.InvalidNet {
				return -1, X
			}
			net, val = next, xor3(target, parity)
		case netlist.Mux2:
			sel, a, b := ins[0], ins[1], ins[2]
			switch {
			case p.good[sel] == Zero:
				net = a
			case p.good[sel] == One:
				net = b
			case p.good[a] == X:
				net = a // will need sel=0 later; objective loop handles it
			case p.good[b] == X:
				net = b
			default:
				// both data known, sel X: set sel to pick the matching one
				if p.good[a] == val {
					net, val = sel, Zero
				} else {
					net, val = sel, One
				}
			}
		case netlist.Const0, netlist.Const1:
			return -1, X
		}
	}
	return -1, X
}
