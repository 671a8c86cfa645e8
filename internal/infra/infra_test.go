package infra

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"contory/internal/cxt"
	"contory/internal/fuego"
	"contory/internal/provider"
	"contory/internal/query"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/vclock"
)

// rig builds an infrastructure plus two phones connected over UMTS.
func rig(t *testing.T) (*vclock.Simulator, *simnet.Network, *Infrastructure, *fuego.Client, *fuego.Client) {
	t.Helper()
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	inf, err := New(Config{Network: nw, NodeID: "infra"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []simnet.NodeID{"boat1", "boat2"} {
		if _, err := nw.AddNode(id, simnet.Position{}); err != nil {
			t.Fatal(err)
		}
		if err := nw.Connect(id, "infra", radio.MediumUMTS); err != nil {
			t.Fatal(err)
		}
	}
	c1, err := fuego.NewClient(nw, "boat1", "infra", radio.NewUMTS(21))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := fuego.NewClient(nw, "boat2", "infra", radio.NewUMTS(22))
	if err != nil {
		t.Fatal(err)
	}
	return clk, nw, inf, c1, c2
}

func fix(lat, lon, speed float64) cxt.Fix {
	return cxt.Fix{Lat: lat, Lon: lon, SpeedKn: speed}
}

func publishLoc(t *testing.T, clk *vclock.Simulator, c *fuego.Client, f cxt.Fix) {
	t.Helper()
	_, err := c.Publish(ChannelLocation, cxt.Item{
		Type: cxt.TypeLocation, Value: f, Timestamp: clk.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
}

func publishWeather(t *testing.T, clk *vclock.Simulator, c *fuego.Client, typ cxt.Type, v float64) {
	t.Helper()
	_, err := c.Publish(ChannelWeather, cxt.Item{
		Type: typ, Value: v, Timestamp: clk.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
}

func TestStoreAndGet(t *testing.T) {
	clk, _, inf, c1, _ := rig(t)
	publishWeather(t, clk, c1, cxt.TypeTemperature, 17.0)
	if inf.Stored() != 1 {
		t.Fatalf("Stored = %d", inf.Stored())
	}
	var got any
	var gerr error
	err := c1.Request(provider.InfraOpGetItem, provider.InfraQuery{Select: cxt.TypeTemperature},
		0, func(v any, err error) { got, gerr = v, err })
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if gerr != nil {
		t.Fatal(gerr)
	}
	items, ok := got.([]cxt.Item)
	if !ok || len(items) != 1 || items[0].Value != 17.0 {
		t.Fatalf("got = %+v", got)
	}
}

func TestGetHonoursFreshness(t *testing.T) {
	clk, _, _, c1, _ := rig(t)
	publishWeather(t, clk, c1, cxt.TypeTemperature, 17.0)
	clk.Advance(10 * time.Minute)
	var gerr error
	err := c1.Request(provider.InfraOpGetItem,
		provider.InfraQuery{Select: cxt.TypeTemperature, Freshness: time.Minute},
		0, func(_ any, err error) { gerr = err })
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if gerr == nil {
		t.Fatal("stale item returned despite freshness bound")
	}
}

func TestRegionScopedWeather(t *testing.T) {
	clk, _, inf, c1, c2 := rig(t)
	// boat1 sails near the guest harbour (60.1, 24.9); boat2 is far away.
	publishLoc(t, clk, c1, fix(60.10, 24.90, 5))
	publishLoc(t, clk, c2, fix(59.00, 23.00, 6))
	publishWeather(t, clk, c1, cxt.TypeWind, 8.0)
	publishWeather(t, clk, c2, cxt.TypeWind, 22.0)

	if pos, ok := inf.EntityPosition("boat1"); !ok || pos.Lat != 60.10 {
		t.Fatalf("entity position = %+v, %v", pos, ok)
	}
	var got any
	err := c1.Request(provider.InfraOpGetItem, provider.InfraQuery{
		Select:   cxt.TypeWind,
		Region:   &query.Region{X: 60.1, Y: 24.9, Radius: 0.2},
		MaxItems: 10,
	}, 0, func(v any, err error) { got = v })
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	items, ok := got.([]cxt.Item)
	if !ok || len(items) != 1 || items[0].Value != 8.0 {
		t.Fatalf("region query = %+v, want only boat1's observation", got)
	}
}

func TestEntityScopedQuery(t *testing.T) {
	clk, _, _, c1, c2 := rig(t)
	publishLoc(t, clk, c1, fix(60.10, 24.90, 5))
	publishLoc(t, clk, c2, fix(60.20, 24.95, 6))
	var got any
	err := c1.Request(provider.InfraOpGetItem, provider.InfraQuery{
		Select: cxt.TypeLocation, Entity: "boat2",
	}, 0, func(v any, err error) { got = v })
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	items, ok := got.([]cxt.Item)
	if !ok || len(items) != 1 {
		t.Fatalf("got = %+v", got)
	}
	f, ok := items[0].Value.(cxt.Fix)
	if !ok || f.Lat != 60.20 {
		t.Fatalf("fix = %+v", items[0].Value)
	}
}

func TestCapacityBound(t *testing.T) {
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	inf, err := New(Config{Network: nw, NodeID: "infra", Capacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		inf.handleStore("boat1", cxt.Item{Type: cxt.TypeWind, Value: float64(i), Timestamp: clk.Now()})
	}
	if inf.Stored() != 3 {
		t.Fatalf("Stored = %d, want capacity 3", inf.Stored())
	}
}

// The archive is a ring: across the wrap, handleGet must return exactly
// what an append-and-trim log of the newest capacity items would, newest
// first, including when the type filter skips entries and when MaxItems
// stops the walk early.
func TestArchiveRingMatchesSliceLog(t *testing.T) {
	const capacity = 5
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	inf, err := New(Config{Network: nw, NodeID: "infra", Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	var log []cxt.Item // the reference: append, then keep the newest capacity
	for i := 0; i < 3*capacity+2; i++ {
		typ := cxt.TypeWind
		if i%3 == 2 {
			typ = cxt.TypeTemperature
		}
		it := cxt.Item{Type: typ, Value: float64(i), Timestamp: clk.Now()}
		inf.handleStore("boat1", it)
		log = append(log, it)
		if len(log) > capacity {
			log = log[len(log)-capacity:]
		}
		if inf.Stored() != len(log) {
			t.Fatalf("after %d stores: Stored = %d, want %d", i+1, inf.Stored(), len(log))
		}
		for _, typ := range []cxt.Type{cxt.TypeWind, cxt.TypeTemperature} {
			for _, max := range []int{1, 2, capacity} {
				var want []float64
				for j := len(log) - 1; j >= 0 && len(want) < max; j-- {
					if log[j].Type == typ {
						want = append(want, log[j].Value.(float64))
					}
				}
				got, err := inf.handleGet(fuego.Request{Payload: provider.InfraQuery{Select: typ, MaxItems: max}})
				var vals []float64
				if err == nil {
					for _, it := range got.([]cxt.Item) {
						vals = append(vals, it.Value.(float64))
					}
				}
				if fmt.Sprint(vals) != fmt.Sprint(want) {
					t.Fatalf("after %d stores, %s max %d: got %v (err %v), want %v", i+1, typ, max, vals, err, want)
				}
			}
		}
		clk.Advance(time.Second)
	}
}

func TestGetErrors(t *testing.T) {
	clk, _, inf, c1, _ := rig(t)
	_ = inf
	var gerr error
	err := c1.Request(provider.InfraOpGetItem, provider.InfraQuery{Select: cxt.TypeNoise},
		0, func(_ any, err error) { gerr = err })
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if gerr == nil {
		t.Fatal("empty store returned data")
	}
	// Malformed payload.
	var gerr2 error
	if err := c1.Request(provider.InfraOpGetItem, "garbage", 0, func(_ any, err error) { gerr2 = err }); err != nil {
		t.Fatal(err)
	}
	clk.Run(0)
	if gerr2 == nil {
		t.Fatal("bad payload accepted")
	}
}

func TestRegattaClassification(t *testing.T) {
	course := []Checkpoint{
		{Lat: 60.10, Lon: 24.90, Radius: 0.01},
		{Lat: 60.20, Lon: 24.95, Radius: 0.01},
		{Lat: 60.30, Lon: 25.00, Radius: 0.01},
	}
	r := NewRegatta(course)
	var updates int
	r.OnUpdate(func([]Standing) { updates++ })
	t0 := vclock.Epoch

	// boat1 clears checkpoints 1 and 2; boat2 clears only 1, later.
	r.Observe("boat1", fix(60.10, 24.90, 6), t0)
	r.Observe("boat1", fix(60.20, 24.95, 7), t0.Add(10*time.Minute))
	r.Observe("boat2", fix(60.10, 24.90, 5), t0.Add(2*time.Minute))
	r.Observe("boat2", fix(60.15, 24.92, 5), t0.Add(12*time.Minute)) // between checkpoints

	cls := r.Classification()
	if len(cls) != 2 || cls[0].Boat != "boat1" || cls[0].Checkpoints != 2 {
		t.Fatalf("classification = %+v", cls)
	}
	if cls[1].Boat != "boat2" || cls[1].Checkpoints != 1 {
		t.Fatalf("second = %+v", cls[1])
	}
	if updates != 3 {
		t.Fatalf("updates = %d, want 3 checkpoint clearings", updates)
	}
	leader, ok := r.Leader()
	if !ok || leader.Boat != "boat1" {
		t.Fatalf("leader = %+v, %v", leader, ok)
	}
	if leader.AvgSpeedKn != 6.5 {
		t.Fatalf("avg speed = %v", leader.AvgSpeedKn)
	}
}

func TestRegattaTieBreakOnTime(t *testing.T) {
	course := []Checkpoint{{Lat: 60.10, Lon: 24.90, Radius: 0.01}}
	r := NewRegatta(course)
	t0 := vclock.Epoch
	r.Observe("slow", fix(60.10, 24.90, 4), t0.Add(time.Hour))
	r.Observe("fast", fix(60.10, 24.90, 8), t0.Add(time.Minute))
	cls := r.Classification()
	if cls[0].Boat != "fast" {
		t.Fatalf("classification = %+v, want earlier boat first", cls)
	}
}

func TestRegattaNoLeaderBeforeProgress(t *testing.T) {
	r := NewRegatta([]Checkpoint{{Lat: 60, Lon: 24, Radius: 0.01}})
	r.Observe("boat1", fix(59, 23, 5), vclock.Epoch)
	if _, ok := r.Leader(); ok {
		t.Fatal("leader before any checkpoint cleared")
	}
}

func TestRegattaViaInfrastructure(t *testing.T) {
	clk, _, inf, c1, c2 := rig(t)
	r := NewRegatta([]Checkpoint{{Lat: 60.10, Lon: 24.90, Radius: 0.01}})
	inf.AttachRegatta(r)
	var lastStandings []Standing
	r.OnUpdate(func(s []Standing) { lastStandings = s })

	publishLoc(t, clk, c1, fix(60.10, 24.90, 6)) // boat1 hits the checkpoint
	publishLoc(t, clk, c2, fix(59.90, 24.80, 5)) // boat2 does not
	clk.Run(0)
	if len(lastStandings) == 0 || lastStandings[0].Boat != "boat1" {
		t.Fatalf("standings = %+v", lastStandings)
	}
	leader, ok := r.Leader()
	if !ok || leader.Boat != "boat1" || leader.Checkpoints != 1 {
		t.Fatalf("leader = %+v", leader)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without network succeeded")
	}
	clk := vclock.NewSimulator()
	nw := simnet.New(clk)
	if _, err := New(Config{Network: nw, NodeID: "infra"}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Network: nw, NodeID: "infra"}); !errors.Is(err, simnet.ErrDuplicateID) {
		t.Fatalf("duplicate = %v", err)
	}
}
