package bench

import (
	"reflect"
	"testing"
)

// TestScenarioPairsDifferInOneField: each A/B pair is built from its one
// scenario function, and its two configs are equal once the field the
// pair measures is zeroed — so a difference between the arms' results is
// that field's doing.
func TestScenarioPairsDifferInOneField(t *testing.T) {
	for _, short := range []bool{true, false} {
		p := Profile{Short: short, Seed: 42}
		for _, pair := range []struct {
			name  string
			build func(on bool) ServiceConfig
			zero  func(*ServiceConfig)
		}{
			{"adaptive", func(on bool) ServiceConfig { return adaptiveScenario(p, on) }, func(c *ServiceConfig) { c.Adapt = nil }},
			{"obs overhead", func(on bool) ServiceConfig { return obsOverheadScenario(p, on) }, func(c *ServiceConfig) { c.Record = false }},
			{"goodput", func(on bool) ServiceConfig { return goodputScenario(p, on) }, func(c *ServiceConfig) { c.Retry = false }},
			{"tail", func(on bool) ServiceConfig { return tailScenario(p, on) }, func(c *ServiceConfig) { c.Hedge = false }},
		} {
			off, on := pair.build(false), pair.build(true)
			if reflect.DeepEqual(off, on) {
				t.Errorf("%s (short=%v): the arms do not differ", pair.name, short)
			}
			pair.zero(&on)
			if !reflect.DeepEqual(off, on) {
				t.Errorf("%s (short=%v): the arms differ beyond the measured field:\n off %+v\n on  %+v", pair.name, short, off, on)
			}
			if err := off.Validate(); err != nil {
				t.Errorf("%s (short=%v): %v", pair.name, short, err)
			}
		}
	}
}
