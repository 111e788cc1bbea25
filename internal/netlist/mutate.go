package netlist

// Clone returns a deep copy of the netlist (lazy analysis caches are not
// carried over; they recompute on demand).
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{
		Name:      n.Name,
		nets:      append([]netInfo(nil), n.nets...),
		Gates:     make([]Gate, len(n.Gates)),
		FFs:       append([]FF(nil), n.FFs...),
		Inputs:    append([]NetID(nil), n.Inputs...),
		Outputs:   append([]NetID(nil), n.Outputs...),
		compNames: append([]string(nil), n.compNames...),
		curComp:   n.curComp,
	}
	for i, g := range n.Gates {
		c.Gates[i] = Gate{Kind: g.Kind, In: append([]NetID(nil), g.In...), Out: g.Out, Comp: g.Comp}
	}
	return c
}

// reader is one consumer pin of a net: a gate input pin, or an FF D input
// (pin < 0).
type reader struct {
	gate GateID
	pin  int
	ff   FFID
}

func (n *Netlist) consumersOf(id NetID) []reader {
	var rs []reader
	for gi := range n.Gates {
		for pi, in := range n.Gates[gi].In {
			if in == id {
				rs = append(rs, reader{gate: GateID(gi), pin: pi, ff: -1})
			}
		}
	}
	for fi := range n.FFs {
		if n.FFs[fi].D == id {
			rs = append(rs, reader{gate: -1, pin: -1, ff: FFID(fi)})
		}
	}
	return rs
}

func (n *Netlist) rewire(r reader, to NetID) {
	if r.gate >= 0 {
		n.Gates[r.gate].In[r.pin] = to
	} else {
		n.FFs[r.ff].D = to
	}
	n.view = nil
}

// EquivTransform returns a clone of n rewritten by k random
// function-preserving edits — the netlist-level shape of the ICI logic
// privatization the paper applies to make components independently
// testable:
//
//   - gate privatization: a multi-fanout gate is duplicated (possibly into
//     a different component) and a strict subset of its readers is rewired
//     to the copy, exactly what privatizing shared logic into a consumer's
//     component does;
//   - buffer insertion: a consumer pin is fed through a fresh BUF, the
//     degenerate privatization of a wire.
//
// Primary inputs, flip-flop order, and primary outputs are untouched, so
// the result must be functionally equivalent to n index-by-index — the
// differential harness checks exactly that, catching any transform,
// evaluator, or levelization bug that breaks the equivalence.
func EquivTransform(n *Netlist, seed uint64, k int) *Netlist {
	t := n.Clone()
	r := randRNG{s: seed*0x9e3779b97f4a7c15 + 0x853c49e6748fea9b}
	for op := 0; op < k; op++ {
		if t.NumGates() > 0 && r.intn(2) == 0 && t.privatizeOne(&r) {
			continue
		}
		t.bufferOne(&r)
	}
	return t
}

// privatizeOne duplicates one multi-fanout gate and moves a strict subset
// of its readers onto the duplicate. Reports whether a candidate existed.
func (t *Netlist) privatizeOne(r *randRNG) bool {
	// bounded candidate search, not a full scan: good enough for a fuzzer
	for try := 0; try < 8; try++ {
		gi := GateID(r.intn(t.NumGates()))
		g := t.Gates[gi]
		rs := t.consumersOf(g.Out)
		if len(rs) < 2 {
			continue
		}
		t.SetCurrentComp(CompID(r.intn(t.NumComps())))
		dup := t.AddGate(g.Kind, g.In...)
		// move a random strict, non-empty subset of the readers
		moved := 1 + r.intn(len(rs)-1)
		for i := 0; i < moved; i++ {
			j := i + r.intn(len(rs)-i)
			rs[i], rs[j] = rs[j], rs[i]
			t.rewire(rs[i], dup)
		}
		return true
	}
	return false
}

// bufferOne inserts a BUF in front of one random consumer pin.
func (t *Netlist) bufferOne(r *randRNG) {
	// collect consumers lazily: FF D pins always exist (>=1 FF by
	// construction in generated netlists); gate pins when there are gates
	nPins := 0
	for gi := range t.Gates {
		nPins += len(t.Gates[gi].In)
	}
	total := nPins + t.NumFFs()
	if total == 0 {
		return
	}
	pick := r.intn(total)
	t.SetCurrentComp(CompID(r.intn(t.NumComps())))
	if pick < nPins {
		for gi := range t.Gates {
			if pick >= len(t.Gates[gi].In) {
				pick -= len(t.Gates[gi].In)
				continue
			}
			in := t.Gates[gi].In[pick]
			buf := t.AddGate(Buf, in)
			t.Gates[gi].In[pick] = buf
			t.view = nil
			return
		}
	}
	fi := FFID(pick - nPins)
	buf := t.AddGate(Buf, t.FFs[fi].D)
	t.BindFFD(fi, buf)
}
