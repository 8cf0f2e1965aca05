package fault

import (
	"reflect"
	"testing"
)

// FuzzParsePlan feeds arbitrary specs to the fault-plan parser: it must
// never panic, and every plan it accepts must survive a round trip
// through Plan.String — ParsePlan(p.String()) is p again. The negative
// stalldelay and maxfaults seeds were once accepted and then dropped by
// String; the NaN one slipped past the probability range check.
func FuzzParsePlan(f *testing.F) {
	for _, spec := range []string{
		"seed=42,drop=0.1,dup=0.05,reorder=0.2,corrupt=0.02,stall=0.01,stalldelay=2ms,crash=3@40",
		"seed=11,drop=0.05,dup=0.05,reorder=0.05,reset=0.02",
		"crash=1@5,crash=0@10,maxfaults=3",
		"none",
		"",
		"stalldelay=-1ms",
		"maxfaults=-3",
		"drop=NaN",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		back, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) accepted, but its String %q does not parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("ParsePlan(%q) = %+v, but its String %q parses to %+v", spec, p, p.String(), back)
		}
	})
}
