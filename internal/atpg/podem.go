package atpg

import (
	"rescue/internal/netlist"
)

// podem is the working state of one PODEM run.
type podem struct {
	n     *netlist.Netlist
	v     *netlist.View // the netlist's levelized gate arrays
	fault netlist.Fault
	stuck V3 // the fault's stuck value

	// pis lists the controllable points: primary inputs then FF Q nets.
	pis []netlist.NetID
	// piIndex maps net -> index in pis, or -1.
	piIndex []int
	// assign holds the current PI decisions (X = unassigned).
	assign []V3

	good, bad []V3 // per-net planes

	obsNets []netlist.NetID

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
	p := newPodem(n, f, maxBacktracks)
	ok, aborted := p.search()
	cube := Cube{PI: make([]V3, len(n.Inputs)), FF: make([]V3, n.NumFFs())}
	copy(cube.PI, p.assign[:len(n.Inputs)])
	copy(cube.FF, p.assign[len(n.Inputs):])
	switch {
	case ok:
		return cube, Detected
	case aborted:
		return Cube{}, Aborted
	default:
		return Cube{}, Untestable
	}
}

// newPodem sets up the working state for one run: every PI unassigned.
func newPodem(n *netlist.Netlist, f netlist.Fault, maxBacktracks int) *podem {
	p := &podem{n: n, v: n.View(), fault: f, stuck: saVal(f.StuckAt1), maxBacktracks: maxBacktracks}
	p.pis = make([]netlist.NetID, 0, len(n.Inputs)+n.NumFFs())
	p.pis = append(p.pis, n.Inputs...)
	for i := range n.FFs {
		p.pis = append(p.pis, n.FFs[i].Q)
	}
	p.piIndex = make([]int, n.NumNets())
	for i := range p.piIndex {
		p.piIndex[i] = -1
	}
	for i, net := range p.pis {
		p.piIndex[net] = i
	}
	p.assign = make([]V3, len(p.pis))
	p.good = make([]V3, n.NumNets())
	p.bad = make([]V3, n.NumNets())
	for fi := range n.FFs {
		p.obsNets = append(p.obsNets, n.FFs[fi].D)
	}
	p.obsNets = append(p.obsNets, n.Outputs...)
	return p
}

type decision struct {
	pi        int
	value     V3
	triedBoth bool
}

// search runs the PODEM decision loop. Returns (found, aborted).
func (p *podem) search() (bool, bool) {
	var stack []decision
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
					p.assign[pi] = pv
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
				p.assign[d.pi] = d.value
				p.backtracks++
				flipped = true
				break
			}
			p.assign[d.pi] = X
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

// imply performs full forward 5-valued implication from the current PI
// assignments.
func (p *podem) imply() {
	for i := range p.good {
		p.good[i] = X
		p.bad[i] = X
	}
	for i, net := range p.pis {
		p.good[net] = p.assign[i]
		p.bad[net] = p.assign[i]
	}
	f := p.fault
	// FF-output fault: faulty plane of Q is forced
	if f.Gate < 0 && f.FF >= 0 {
		p.bad[p.n.FFs[f.FF].Q] = p.stuck
	}
	for _, g := range p.v.Order {
		out := p.v.Out[g]
		p.good[out] = p.eval3(p.good, g, -1)
		switch {
		case g != f.Gate:
			p.bad[out] = p.eval3(p.bad, g, -1)
		case f.Pin >= 0:
			p.bad[out] = p.eval3(p.bad, g, f.Pin)
		default:
			p.bad[out] = p.stuck
		}
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

func (p *podem) errorAtOutput() bool {
	for _, net := range p.obsNets {
		if p.isError(net) {
			return true
		}
	}
	// FF-output faults are observed directly on scan-out of the faulty cell
	if p.fault.Gate < 0 && p.fault.FF >= 0 {
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

func (p *podem) anyError() bool {
	for _, out := range p.v.Out {
		if p.isError(out) {
			return true
		}
	}
	if p.fault.Gate < 0 && p.fault.FF >= 0 && p.isError(p.n.FFs[p.fault.FF].Q) {
		return true
	}
	return false
}

// dFrontier returns gates with an error on some input and a non-error,
// not-fully-determined output.
func (p *podem) dFrontier() []netlist.GateID {
	var out []netlist.GateID
	for gi, o := range p.v.Out {
		if p.isError(o) {
			continue
		}
		if p.good[o] != X && p.bad[o] != X {
			continue // fully determined, error cannot appear anymore
		}
		for _, in := range p.pins(netlist.GateID(gi)) {
			if p.isError(in) {
				out = append(out, netlist.GateID(gi))
				break
			}
		}
	}
	return out
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
	v := p.v
	seen := make([]bool, len(v.Out))
	stack := append([]netlist.GateID(nil), frontier...)
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[g] {
			continue
		}
		seen[g] = true
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
