package netlist

import "fmt"

// State holds one 64-way-parallel simulation image of a netlist: one uint64
// word per net, bit i of each word belonging to pattern i. Pattern-parallel
// words are the workhorse of the fault simulator — a single pass evaluates
// 64 scan-test patterns at once.
type State struct {
	n    *Netlist
	v    *View
	Vals []uint64
}

// NewState allocates a zeroed simulation state for n.
func (n *Netlist) NewState() *State {
	return &State{n: n, v: n.View(), Vals: make([]uint64, len(n.nets))}
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := &State{n: s.n, v: s.v, Vals: make([]uint64, len(s.Vals))}
	copy(c.Vals, s.Vals)
	return c
}

// Set assigns a net's 64-pattern word.
func (s *State) Set(id NetID, v uint64) { s.Vals[id] = v }

// Get reads a net's 64-pattern word.
func (s *State) Get(id NetID) uint64 { return s.Vals[id] }

// SetBool assigns all 64 pattern lanes of a net to the same boolean.
func (s *State) SetBool(id NetID, v bool) {
	if v {
		s.Vals[id] = ^uint64(0)
	} else {
		s.Vals[id] = 0
	}
}

// Bool reads lane 0 of a net as a boolean.
func (s *State) Bool(id NetID) bool { return s.Vals[id]&1 != 0 }

// Fault names a single stuck-at fault site: a specific gate pin (input pin
// index, or output when Pin == -1), or a flip-flop Q output when Gate == -1
// (FF field used instead). StuckAt1 selects stuck-at-1 vs stuck-at-0.
type Fault struct {
	Gate     GateID // -1 when the site is an FF output
	FF       FFID   // valid when Gate == -1
	Pin      int    // input pin index; -1 = gate output
	StuckAt1 bool
}

// NoFault is the zero-cost "no fault injected" sentinel.
var NoFault = Fault{Gate: -1, FF: -1, Pin: -1}

func (f Fault) String() string {
	sa := 0
	if f.StuckAt1 {
		sa = 1
	}
	if f.Gate < 0 {
		return fmt.Sprintf("FF%d/Q sa%d", f.FF, sa)
	}
	if f.Pin < 0 {
		return fmt.Sprintf("G%d/out sa%d", f.Gate, sa)
	}
	return fmt.Sprintf("G%d/in%d sa%d", f.Gate, f.Pin, sa)
}

// EvalWord is the 64-lane truth table of every gate kind: ins holds one
// word per input pin (Mux2: sel, a, b), bit i of each word belonging to
// pattern lane i. It is the single definition of gate semantics that
// State, the fault simulator and its brute-force oracle all evaluate
// through; TestGateTruthTables pins it at every legal arity.
func EvalWord(k GateKind, ins []uint64) uint64 {
	switch k {
	case And:
		v := ^uint64(0)
		for _, x := range ins {
			v &= x
		}
		return v
	case Or:
		v := uint64(0)
		for _, x := range ins {
			v |= x
		}
		return v
	case Nand:
		v := ^uint64(0)
		for _, x := range ins {
			v &= x
		}
		return ^v
	case Nor:
		v := uint64(0)
		for _, x := range ins {
			v |= x
		}
		return ^v
	case Xor:
		v := uint64(0)
		for _, x := range ins {
			v ^= x
		}
		return v
	case Xnor:
		v := uint64(0)
		for _, x := range ins {
			v ^= x
		}
		return ^v
	case Not:
		return ^ins[0]
	case Buf:
		return ins[0]
	case Mux2:
		sel, a, b := ins[0], ins[1], ins[2]
		return (a &^ sel) | (b & sel)
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	}
	panic("netlist: unknown gate kind")
}

// evalOne evaluates a single gate into s, honoring an injected fault. It
// reads the Gate record, not the View's pin arrays, so the brute-force
// fault oracle built on State shares no structure with the fault
// simulator beyond EvalWord.
func (s *State) evalOne(gi GateID, f Fault) {
	g := &s.n.Gates[gi]
	var buf [8]uint64
	ins := buf[:0]
	for _, in := range g.In {
		ins = append(ins, s.Vals[in])
	}
	if f.Gate == gi && f.Pin >= 0 {
		if f.StuckAt1 {
			ins[f.Pin] = ^uint64(0)
		} else {
			ins[f.Pin] = 0
		}
	}
	v := EvalWord(g.Kind, ins)
	if f.Gate == gi && f.Pin < 0 {
		if f.StuckAt1 {
			v = ^uint64(0)
		} else {
			v = 0
		}
	}
	s.Vals[g.Out] = v
}

// EvalComb evaluates all combinational logic, in the View's topological
// order, from the current net values (primary inputs and FF Q nets must be
// set by the caller) with fault f injected. Pass NoFault for good-machine
// simulation.
func (s *State) EvalComb(f Fault) {
	if f.Gate < 0 && f.FF >= 0 {
		q := s.n.FFs[f.FF].Q
		if f.StuckAt1 {
			s.Vals[q] = ^uint64(0)
		} else {
			s.Vals[q] = 0
		}
	}
	for _, gi := range s.v.Order {
		s.evalOne(gi, f)
	}
}

// CaptureFFs performs the clock edge: every FF's Q net takes its D net's
// value. If f is an FF-output fault, the faulty Q is forced afterwards.
func (s *State) CaptureFFs(f Fault) {
	// two-phase copy so FF->FF chains are edge-accurate
	tmp := make([]uint64, len(s.n.FFs))
	for i := range s.n.FFs {
		tmp[i] = s.Vals[s.n.FFs[i].D]
	}
	for i := range s.n.FFs {
		s.Vals[s.n.FFs[i].Q] = tmp[i]
	}
	if f.Gate < 0 && f.FF >= 0 {
		q := s.n.FFs[f.FF].Q
		if f.StuckAt1 {
			s.Vals[q] = ^uint64(0)
		} else {
			s.Vals[q] = 0
		}
	}
}

// Cycle runs one full clock cycle: combinational settle then FF capture.
func (s *State) Cycle(f Fault) {
	s.EvalComb(f)
	s.CaptureFFs(f)
}

// FaultSiteComp returns the ICI component a fault site belongs to.
func (n *Netlist) FaultSiteComp(f Fault) CompID {
	if f.Gate >= 0 {
		return n.Gates[f.Gate].Comp
	}
	if f.FF >= 0 {
		return n.FFs[f.FF].Comp
	}
	return 0
}

// AllFaultSites enumerates the uncollapsed single-stuck-at fault universe:
// sa0 and sa1 at every gate output, every gate input pin, and every FF
// output (the FF output faults model defects in the sequential element
// itself, visible as a wrong captured value).
func (n *Netlist) AllFaultSites() []Fault {
	var out []Fault
	for gi := range n.Gates {
		out = append(out,
			Fault{Gate: GateID(gi), FF: -1, Pin: -1, StuckAt1: false},
			Fault{Gate: GateID(gi), FF: -1, Pin: -1, StuckAt1: true})
		for pi := range n.Gates[gi].In {
			out = append(out,
				Fault{Gate: GateID(gi), FF: -1, Pin: pi, StuckAt1: false},
				Fault{Gate: GateID(gi), FF: -1, Pin: pi, StuckAt1: true})
		}
	}
	for fi := range n.FFs {
		out = append(out,
			Fault{Gate: -1, FF: FFID(fi), Pin: -1, StuckAt1: false},
			Fault{Gate: -1, FF: FFID(fi), Pin: -1, StuckAt1: true})
	}
	return out
}
