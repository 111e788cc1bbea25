package netlist

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestGateTruthTables pins EvalWord, the one 64-lane truth table, for
// every gate kind at every legal arity. Each input word enumerates all
// input combinations across the low lanes (2 inputs: lanes 0-3, 3: 0-7,
// 4: 0-15; the first input is the most significant lane-index bit), and
// the expected words are written out by hand.
func TestGateTruthTables(t *testing.T) {
	in1 := []uint64{0b10}
	in2 := []uint64{0b1100, 0b1010}
	in3 := []uint64{0xF0, 0xCC, 0xAA}
	in4 := []uint64{0xFF00, 0xF0F0, 0xCCCC, 0xAAAA}
	cases := []struct {
		kind GateKind
		ins  []uint64
		want uint64
	}{
		{Const0, nil, 0},
		{Const1, nil, ^uint64(0)},
		{Not, in1, ^uint64(0b10)},
		{Buf, in1, 0b10},
		// Mux2: sel, a, b -> sel ? b : a
		{Mux2, in3, 0xAC},

		{And, in2, 0b1000},
		{Or, in2, 0b1110},
		{Nand, in2, ^uint64(0b1000)},
		{Nor, in2, ^uint64(0b1110)},
		{Xor, in2, 0b0110},
		{Xnor, in2, ^uint64(0b0110)},

		{And, in3, 0x80},
		{Or, in3, 0xFE},
		{Nand, in3, ^uint64(0x80)},
		{Nor, in3, ^uint64(0xFE)},
		{Xor, in3, 0x96},
		{Xnor, in3, ^uint64(0x96)},

		{And, in4, 0x8000},
		{Or, in4, 0xFFFE},
		{Nand, in4, ^uint64(0x8000)},
		{Nor, in4, ^uint64(0xFFFE)},
		{Xor, in4, 0x6996},
		{Xnor, in4, ^uint64(0x6996)},
	}
	for _, c := range cases {
		if got := EvalWord(c.kind, c.ins); got != c.want {
			t.Errorf("%v/%d(%#x) = %#x, want %#x", c.kind, len(c.ins), c.ins, got, c.want)
		}
	}
}

// TestViewMatchesGates checks every array of the levelized view against a
// brute-force recomputation from the Gate records: pins and kinds, the
// reader CSR, the observation chains, a topological Order, and Level as
// the longest gate path from a source.
func TestViewMatchesGates(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		n := Random(RandomConfig{Seed: seed})
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		v := n.View()

		pos := make([]int, n.NumGates())
		for i, g := range v.Order {
			pos[g] = i
		}
		if len(v.Order) != n.NumGates() {
			t.Fatalf("seed %d: order has %d gates, want %d", seed, len(v.Order), n.NumGates())
		}
		var level func(g GateID) int32
		memo := map[GateID]int32{}
		level = func(g GateID) int32 {
			if lv, ok := memo[g]; ok {
				return lv
			}
			var lv int32
			for _, in := range n.Gates[g].In {
				if d := n.DriverGate(in); d >= 0 && level(d)+1 > lv {
					lv = level(d) + 1
				}
			}
			memo[g] = lv
			return lv
		}
		var maxLevel int32
		for gi, g := range n.Gates {
			id := GateID(gi)
			if v.Kind[gi] != g.Kind || v.Out[gi] != g.Out {
				t.Fatalf("seed %d gate %d: kind/out %v/%d, want %v/%d", seed, gi, v.Kind[gi], v.Out[gi], g.Kind, g.Out)
			}
			pins := v.Pins[v.PinOff[gi]:v.PinOff[gi+1]]
			if len(pins) != len(g.In) {
				t.Fatalf("seed %d gate %d: %d pins, want %d", seed, gi, len(pins), len(g.In))
			}
			for pi, in := range g.In {
				if pins[pi] != in {
					t.Fatalf("seed %d gate %d pin %d: net %d, want %d", seed, gi, pi, pins[pi], in)
				}
				if d := n.DriverGate(in); d >= 0 && pos[d] >= pos[gi] {
					t.Fatalf("seed %d: gate %d ordered before its driver %d", seed, gi, d)
				}
			}
			if v.Level[gi] != level(id) {
				t.Fatalf("seed %d gate %d: level %d, want %d", seed, gi, v.Level[gi], level(id))
			}
			if level(id) > maxLevel {
				maxLevel = level(id)
			}
		}
		if v.MaxLevel != maxLevel {
			t.Fatalf("seed %d: max level %d, want %d", seed, v.MaxLevel, maxLevel)
		}

		pts := n.ObsPoints()
		for net := 0; net < n.NumNets(); net++ {
			var want []GateID
			for gi, g := range n.Gates {
				for _, in := range g.In {
					if in == NetID(net) {
						want = append(want, GateID(gi))
					}
				}
			}
			got := v.Rdrs[v.RdrOff[net]:v.RdrOff[net+1]]
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d net %d: readers %v, want %v", seed, net, got, want)
			}
			var wantObs, gotObs []int32
			for oi, p := range pts {
				if n.ObsNet(p) == NetID(net) {
					wantObs = append(wantObs, int32(oi))
				}
			}
			for oi := v.ObsHead[net]; oi >= 0; oi = v.ObsNext[oi] {
				gotObs = append(gotObs, oi)
			}
			if fmt.Sprint(gotObs) != fmt.Sprint(wantObs) {
				t.Fatalf("seed %d net %d: obs chain %v, want %v", seed, net, gotObs, wantObs)
			}
		}
	}
}

func TestBuilderAndEval(t *testing.T) {
	n := New("adder1")
	a := n.Input("a")
	b := n.Input("b")
	cin := n.Input("cin")
	sum := n.Xor(n.Xor(a, b), cin)
	carry := n.Or(n.And(a, b), n.And(n.Xor(a, b), cin))
	n.Output(sum, "sum")
	n.Output(carry, "carry")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s := n.NewState()
	// exhaustive over lanes: lane index bit0=a, bit1=b, bit2=cin
	var av, bv, cv uint64
	for lane := 0; lane < 8; lane++ {
		if lane&1 != 0 {
			av |= 1 << lane
		}
		if lane&2 != 0 {
			bv |= 1 << lane
		}
		if lane&4 != 0 {
			cv |= 1 << lane
		}
	}
	s.Set(a, av)
	s.Set(b, bv)
	s.Set(cin, cv)
	s.EvalComb(NoFault)
	for lane := 0; lane < 8; lane++ {
		ai, bi, ci := lane&1, (lane>>1)&1, (lane>>2)&1
		wantSum := (ai + bi + ci) & 1
		wantCarry := (ai + bi + ci) >> 1
		if got := int(s.Get(sum)>>lane) & 1; got != wantSum {
			t.Errorf("lane %d: sum=%d want %d", lane, got, wantSum)
		}
		if got := int(s.Get(carry)>>lane) & 1; got != wantCarry {
			t.Errorf("lane %d: carry=%d want %d", lane, got, wantCarry)
		}
	}
}

func TestFFCaptureAndCycle(t *testing.T) {
	n := New("shift2")
	in := n.Input("in")
	q0 := n.AddFF(in, "q0")
	q1 := n.AddFF(q0, "q1")
	n.Output(q1, "out")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s := n.NewState()
	s.Set(in, 1)
	s.Cycle(NoFault)
	if s.Get(q0) != 1 || s.Get(q1) != 0 {
		t.Fatalf("after 1 cycle: q0=%d q1=%d", s.Get(q0), s.Get(q1))
	}
	s.Set(in, 0)
	s.Cycle(NoFault)
	if s.Get(q0) != 0 || s.Get(q1) != 1 {
		t.Fatalf("after 2 cycles: q0=%d q1=%d", s.Get(q0), s.Get(q1))
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	n := New("loop")
	a := n.Input("a")
	// build a cycle: g2 reads g1, g1 reads g2 — construct via placeholder
	g1out := n.And(a, a) // temporarily self-consistent
	g2out := n.Or(g1out, a)
	// rewire g1 to read g2's output, creating a loop
	n.Gates[0].In[1] = g2out
	n.Output(g2out, "o")
	if err := n.Validate(); err == nil {
		t.Fatal("expected combinational cycle error")
	}
}

func TestStuckAtInjection(t *testing.T) {
	n := New("and2")
	a := n.Input("a")
	b := n.Input("b")
	o := n.And(a, b)
	n.Output(o, "o")
	s := n.NewState()
	s.Set(a, ^uint64(0))
	s.Set(b, ^uint64(0))

	s.EvalComb(Fault{Gate: 0, FF: -1, Pin: -1, StuckAt1: false})
	if s.Get(o) != 0 {
		t.Errorf("output sa0: got %x", s.Get(o))
	}
	s.EvalComb(Fault{Gate: 0, FF: -1, Pin: 0, StuckAt1: false})
	if s.Get(o) != 0 {
		t.Errorf("input sa0: got %x", s.Get(o))
	}
	s.Set(a, 0)
	s.EvalComb(Fault{Gate: 0, FF: -1, Pin: 0, StuckAt1: true})
	if s.Get(o) != ^uint64(0) {
		t.Errorf("input sa1 should mask a=0: got %x", s.Get(o))
	}
}

func TestFFOutputFault(t *testing.T) {
	n := New("ffq")
	in := n.Input("in")
	q := n.AddFF(in, "q")
	o := n.Buf(q)
	n.Output(o, "o")
	s := n.NewState()
	s.Set(in, ^uint64(0))
	f := Fault{Gate: -1, FF: 0, Pin: -1, StuckAt1: false}
	s.Cycle(f) // capture 1 but Q stuck at 0
	if s.Get(q) != 0 {
		t.Errorf("stuck FF q = %x, want 0", s.Get(q))
	}
	s.EvalComb(f)
	if s.Get(o) != 0 {
		t.Errorf("buffered stuck q = %x, want 0", s.Get(o))
	}
}

func TestFanInComps(t *testing.T) {
	// Figure 2b of the paper: LCM -> SRS -> {LCX, LCY} -> SRT -> LCN
	n := New("fig2b")
	a := n.Input("a")
	b := n.Input("b")
	n.Component("LCM")
	m := n.And(a, b)
	srs := n.AddFF(m, "SRS")
	n.Component("LCX")
	x := n.Xor(srs, a)
	n.Component("LCY")
	y := n.Or(srs, b)
	n.Component("SRT")
	srtX := n.AddFF(x, "SRT.x")
	srtY := n.AddFF(y, "SRT.y")
	n.Component("LCN")
	o := n.And(srtX, srtY)
	n.Output(o, "out")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	cones := n.FanInComps()
	pts := n.ObsPoints()
	nameSets := map[string][]string{}
	for i, p := range pts {
		var key string
		if p.FF >= 0 {
			key = n.FFs[p.FF].Name
		} else {
			key = "out"
		}
		var comps []string
		for _, c := range cones[i] {
			comps = append(comps, n.CompName(c))
		}
		nameSets[key] = comps
	}
	check := func(key string, want ...string) {
		t.Helper()
		got := nameSets[key]
		if len(got) != len(want) {
			t.Fatalf("%s: fan-in comps %v, want %v", key, got, want)
		}
		wantSet := map[string]bool{}
		for _, w := range want {
			wantSet[w] = true
		}
		for _, g := range got {
			if !wantSet[g] {
				t.Fatalf("%s: fan-in comps %v, want %v", key, got, want)
			}
		}
	}
	check("SRS", "LCM")
	check("SRT.x", "LCX")
	check("SRT.y", "LCY")
	check("out", "LCN")
}

// Property: evaluating the same netlist twice from the same state is
// deterministic, and pattern lanes are independent (evaluating a single
// lane alone gives the same value as that lane within a 64-wide word).
func TestLaneIndependenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buildRandom := func(seed int64) (*Netlist, []NetID) {
		r := rand.New(rand.NewSource(seed))
		n := New("rand")
		nets := []NetID{}
		for i := 0; i < 6; i++ {
			nets = append(nets, n.Input("i"))
		}
		for g := 0; g < 40; g++ {
			k := GateKind(r.Intn(int(Mux2) + 1))
			pick := func() NetID { return nets[r.Intn(len(nets))] }
			var out NetID
			switch k {
			case Not, Buf:
				out = n.AddGate(k, pick())
			case Mux2:
				out = n.AddGate(k, pick(), pick(), pick())
			default:
				out = n.AddGate(k, pick(), pick())
			}
			nets = append(nets, out)
		}
		n.Output(nets[len(nets)-1], "o")
		return n, nets
	}
	f := func(seed int64, stim [6]uint64) bool {
		n, _ := buildRandom(seed % 1000)
		if err := n.Validate(); err != nil {
			return false
		}
		s := n.NewState()
		for i, in := range n.Inputs {
			s.Set(in, stim[i])
		}
		s.EvalComb(NoFault)
		wide := s.Get(n.Outputs[0])
		// now evaluate lane 13 alone
		lane := uint(13)
		s2 := n.NewState()
		for i, in := range n.Inputs {
			s2.Set(in, (stim[i]>>lane)&1)
		}
		s2.EvalComb(NoFault)
		return (wide>>lane)&1 == s2.Get(n.Outputs[0])&1
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAllFaultSitesCount(t *testing.T) {
	n := New("c")
	a := n.Input("a")
	b := n.Input("b")
	x := n.And(a, b)
	q := n.AddFF(x, "q")
	n.Output(q, "o")
	sites := n.AllFaultSites()
	// AND gate: out + 2 pins = 3 sites * 2 polarities = 6; FF: 2
	if len(sites) != 8 {
		t.Fatalf("got %d fault sites, want 8", len(sites))
	}
}

func TestStats(t *testing.T) {
	n := New("s")
	a := n.Input("a")
	n.Component("X")
	x := n.Not(a)
	n.Component("Y")
	y := n.And(x, a)
	n.AddFF(y, "q")
	n.Output(y, "o")
	st := n.Stats()
	if st.Gates != 2 || st.FFs != 1 || st.Inputs != 1 || st.Outputs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByComp["X"] != 1 || st.ByComp["Y"] != 1 {
		t.Fatalf("by-comp = %v", st.ByComp)
	}
	used := n.ComponentsUsed()
	if len(used) != 2 {
		t.Fatalf("components used = %v", used)
	}
}
