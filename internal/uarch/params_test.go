package uarch

import (
	"errors"
	"testing"
)

// TestDegradedValidate pins the boundary behavior of the degraded-shape
// validation: every field accepts exactly [0,2] (a two-member redundant
// pair can lose zero, one, or both members), and anything outside that
// range is a typed DegradedError naming the offending field.
func TestDegradedValidate(t *testing.T) {
	set := func(field string, v int) Degraded {
		var d Degraded
		switch field {
		case "FEGroupsDisabled":
			d.FEGroupsDisabled = v
		case "IntGroupsDisabled":
			d.IntGroupsDisabled = v
		case "FPGroupsDisabled":
			d.FPGroupsDisabled = v
		case "IntIQHalvesDown":
			d.IntIQHalvesDown = v
		case "FPIQHalvesDown":
			d.FPIQHalvesDown = v
		case "LSQHalvesDown":
			d.LSQHalvesDown = v
		default:
			t.Fatalf("unknown field %q", field)
		}
		return d
	}
	fields := []string{
		"FEGroupsDisabled", "IntGroupsDisabled", "FPGroupsDisabled",
		"IntIQHalvesDown", "FPIQHalvesDown", "LSQHalvesDown",
	}
	for _, f := range fields {
		for _, tc := range []struct {
			v  int
			ok bool
		}{
			{-1, false}, // negative counts describe nothing
			{0, true},   // pristine
			{1, true},   // half lost — the paper's degraded modes
			{2, true},   // both lost: dead but describable (Dead() == true)
			{3, false},  // more halves down than exist
			{100, false},
		} {
			err := set(f, tc.v).Validate()
			if tc.ok && err != nil {
				t.Errorf("%s=%d: unexpected error %v", f, tc.v, err)
			}
			if !tc.ok {
				var de *DegradedError
				if !errors.As(err, &de) {
					t.Errorf("%s=%d: want *DegradedError, got %v", f, tc.v, err)
					continue
				}
				if de.Field != f || de.Value != tc.v {
					t.Errorf("%s=%d: error names %s=%d", f, tc.v, de.Field, de.Value)
				}
			}
		}
	}
}

// TestParamsValidateDegraded pins that Params.Validate surfaces the typed
// degraded error (Rescue machines) and still rejects degraded operation
// on the baseline design.
func TestParamsValidateDegraded(t *testing.T) {
	p := RescueParams()
	p.Degr.LSQHalvesDown = 3
	var de *DegradedError
	if err := p.Validate(); !errors.As(err, &de) {
		t.Fatalf("rescue with LSQHalvesDown=3: want *DegradedError, got %v", err)
	}

	p = RescueParams()
	p.Degr.IntIQHalvesDown = 2 // dead but valid
	if err := p.Validate(); err != nil {
		t.Fatalf("rescue with a dead-but-describable shape: %v", err)
	}
	if !p.Degr.Dead() {
		t.Fatal("IntIQHalvesDown=2 should report Dead")
	}

	p = DefaultParams()
	p.Degr.FEGroupsDisabled = 1
	if err := p.Validate(); err == nil {
		t.Fatal("baseline with degraded fields must not validate")
	}
}
