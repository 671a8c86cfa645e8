package query

import "testing"

// The presized token slice holds every token of the query shapes a fleet
// submits without growing.
func TestLexPresizedHoldsTypicalQueries(t *testing.T) {
	for _, src := range []string{
		"SELECT temperature FROM intSensor DURATION 360 sec EVERY 30 sec",
		"SELECT temperature FROM intSensor DURATION 360 sec EVENT temperature>25",
		"SELECT temperature FROM adHocNetwork(all,1) DURATION 360 sec EVERY 30 sec",
		"SELECT temperature FROM extInfra FRESHNESS 60 sec DURATION 30 sec",
		"SELECT location DURATION 360 sec EVERY 30 sec",
		"SELECT wind FROM region(60.1,24.9,500) WHERE accuracy>0.5 AND trust>=3 DURATION 1 hour EVERY 5 min",
	} {
		toks, err := newLexer(src).lex()
		if err != nil {
			t.Fatalf("lex(%q): %v", src, err)
		}
		if want := len(src)/4 + 2; cap(toks) != want {
			t.Errorf("lex(%q): %d tokens grew the slice to cap %d, presized %d", src, len(toks), cap(toks), want)
		}
	}
}
