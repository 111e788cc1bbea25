package netlist

import "fmt"

// View is the levelized structure-of-arrays form of a netlist — the one
// gate substrate every evaluator reads: State.EvalComb, the fault
// simulator's event walks, and PODEM's three-valued implication. Gate
// structure is stored as dense per-gate arrays indexed by GateID plus
// flattened pin and reader lists in CSR form, so hot loops stream through
// int arrays instead of chasing Gate records.
//
// A View is built once by levelize (Validate, or the first View call after
// a mutation) and is read-only: a mutation of the netlist drops it and the
// next levelize builds a fresh one, so holders of an older View keep a
// consistent snapshot.
type View struct {
	Order    []GateID // gates in topological (evaluation) order
	Level    []int32  // per gate: longest gate path from a PI or FF Q
	MaxLevel int32

	Kind   []GateKind // per gate
	Out    []NetID    // per gate output net
	PinOff []int32    // per gate offset into Pins (len gates+1)
	Pins   []NetID    // flattened gate input nets
	RdrOff []int32    // per net offset into Rdrs (len nets+1)
	Rdrs   []GateID   // flattened per-net reading gates, one entry per pin

	// Observation points per net, as intrusive chains in ObsPoints order:
	// a net can be the D input of several FFs and a primary output at the
	// same time. ObsHead[net] is the first obs index sampling the net (-1 =
	// unobserved); ObsNext[obs] links to the next index on the same net.
	ObsHead []int32
	ObsNext []int32
}

// View returns the netlist's levelized view, rebuilding it if a mutation
// dropped it. It panics on a combinational cycle; Validate reports that as
// an error instead.
func (n *Netlist) View() *View {
	if err := n.levelize(); err != nil {
		panic(err)
	}
	return n.view
}

// levelize builds the View. FF Q nets and primary inputs are sources; a
// cycle among gates is a combinational loop error.
func (n *Netlist) levelize() error {
	if n.view != nil {
		return nil
	}
	nGates, nNets := len(n.Gates), len(n.nets)
	v := &View{
		Level:  make([]int32, nGates),
		Kind:   make([]GateKind, nGates),
		Out:    make([]NetID, nGates),
		PinOff: make([]int32, nGates+1),
		RdrOff: make([]int32, nNets+1),
	}
	for gi := range n.Gates {
		g := &n.Gates[gi]
		v.Kind[gi] = g.Kind
		v.Out[gi] = g.Out
		v.PinOff[gi+1] = v.PinOff[gi] + int32(len(g.In))
	}
	v.Pins = make([]NetID, 0, v.PinOff[nGates])
	for gi := range n.Gates {
		v.Pins = append(v.Pins, n.Gates[gi].In...)
	}

	// Readers per net, CSR: gates ascending, a gate reading a net on two
	// pins listed twice.
	for _, in := range v.Pins {
		v.RdrOff[in+1]++
	}
	for i := 0; i < nNets; i++ {
		v.RdrOff[i+1] += v.RdrOff[i]
	}
	v.Rdrs = make([]GateID, v.RdrOff[nNets])
	fill := append([]int32(nil), v.RdrOff[:nNets]...)
	for gi := range n.Gates {
		for _, in := range n.Gates[gi].In {
			v.Rdrs[fill[in]] = GateID(gi)
			fill[in]++
		}
	}

	// Kahn's algorithm over gate-driven pins.
	indeg := make([]int32, nGates)
	for gi := range n.Gates {
		for _, in := range n.Gates[gi].In {
			if n.nets[in].gate >= 0 {
				indeg[gi]++
			}
		}
	}
	v.Order = make([]GateID, 0, nGates)
	for gi := range n.Gates {
		if indeg[gi] == 0 {
			v.Order = append(v.Order, GateID(gi))
		}
	}
	for head := 0; head < len(v.Order); head++ {
		out := v.Out[v.Order[head]]
		for _, s := range v.Rdrs[v.RdrOff[out]:v.RdrOff[out+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				v.Order = append(v.Order, s)
			}
		}
	}
	if len(v.Order) != nGates {
		// find one gate on a cycle for the error message
		for gi := range n.Gates {
			if indeg[gi] > 0 {
				return fmt.Errorf("netlist %s: combinational cycle through gate %d (%v, comp %s)",
					n.Name, gi, n.Gates[gi].Kind, n.compNames[n.Gates[gi].Comp])
			}
		}
		return fmt.Errorf("netlist %s: combinational cycle", n.Name)
	}

	// Level = longest gate path from a source, so a (level, id) sort of
	// any gate set is a valid evaluation schedule.
	for _, g := range v.Order {
		var lv int32
		for _, in := range v.Pins[v.PinOff[g]:v.PinOff[g+1]] {
			if d := n.nets[in].gate; d >= 0 && v.Level[d] >= lv {
				lv = v.Level[d] + 1
			}
		}
		v.Level[g] = lv
		if lv > v.MaxLevel {
			v.MaxLevel = lv
		}
	}

	// Insert in reverse so each chain reads out in ascending obs order.
	v.ObsHead = make([]int32, nNets)
	for i := range v.ObsHead {
		v.ObsHead[i] = -1
	}
	v.ObsNext = make([]int32, len(n.FFs)+len(n.Outputs))
	addObs := func(net NetID, oi int32) {
		v.ObsNext[oi] = v.ObsHead[net]
		v.ObsHead[net] = oi
	}
	for oi := len(n.Outputs) - 1; oi >= 0; oi-- {
		addObs(n.Outputs[oi], int32(len(n.FFs)+oi))
	}
	for fi := len(n.FFs) - 1; fi >= 0; fi-- {
		addObs(n.FFs[fi].D, int32(fi))
	}
	n.view = v
	return nil
}
