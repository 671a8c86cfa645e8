package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	run := loadFlags{phones: 10, duration: time.Minute}
	with := func(edit func(*loadFlags)) loadFlags {
		f := run
		edit(&f)
		return f
	}
	cases := []struct {
		name    string
		flags   loadFlags
		wantErr string // "" = valid
	}{
		{name: "defaults", flags: loadFlags{phones: 1000, duration: 10 * time.Minute}},
		{name: "explicit workers", flags: with(func(f *loadFlags) { f.workers = 8 })},
		{name: "qos overload run", flags: with(func(f *loadFlags) { f.qosRate, f.overload = 0.5, 1 })},
		{name: "zero phones", flags: with(func(f *loadFlags) { f.phones = 0 }), wantErr: "-phones"},
		{name: "negative phones", flags: with(func(f *loadFlags) { f.phones = -5 }), wantErr: "-phones"},
		{name: "zero duration", flags: with(func(f *loadFlags) { f.duration = 0 }), wantErr: "-duration"},
		{name: "negative duration", flags: with(func(f *loadFlags) { f.duration = -time.Second }), wantErr: "-duration"},
		{name: "negative workers", flags: with(func(f *loadFlags) { f.workers = -1 }), wantErr: "-workers"},
		{name: "negative qos rate", flags: with(func(f *loadFlags) { f.qosRate = -0.1 }), wantErr: "-qos-rate"},
		{name: "overload above one", flags: with(func(f *loadFlags) { f.overload = 1.5 }), wantErr: "-overload"},
		{name: "negative overload", flags: with(func(f *loadFlags) { f.overload = -0.2 }), wantErr: "-overload"},
		{name: "audited run", flags: with(func(f *loadFlags) { f.audit = true })},
		{name: "audited sweep", flags: with(func(f *loadFlags) { f.audit, f.sweep = true, "10,20" }), wantErr: "-audit"},
		{name: "audited bench", flags: with(func(f *loadFlags) { f.audit, f.benchOut = true, "BENCH.json" }), wantErr: "-audit"},
		{name: "unaudited sweep", flags: with(func(f *loadFlags) { f.sweep = "10,20" })},
		{name: "timeline run", flags: with(func(f *loadFlags) { f.timeline, f.timelineInterval = true, 10*time.Second })},
		{name: "timeline zero interval", flags: with(func(f *loadFlags) { f.timeline = true }), wantErr: "-timeline-interval"},
		{name: "timeline negative interval", flags: with(func(f *loadFlags) { f.timeline, f.timelineInterval = true, -time.Second }), wantErr: "-timeline-interval"},
		{name: "timeline off ignores interval", flags: with(func(f *loadFlags) { f.timelineInterval = -time.Second })},
		{name: "cpu and mem profiles", flags: with(func(f *loadFlags) { f.cpuProfile, f.memProfile = "cpu.out", "mem.out" })},
		{name: "profiles with every output", flags: with(func(f *loadFlags) {
			f.statsOut, f.benchOut, f.benchGo, f.traceOut, f.timelineOut = "s.json", "b.json", "b.txt", "t.json", "tl.json"
			f.cpuProfile, f.memProfile = "prof/cpu.out", "prof/mem.out"
		})},
		{name: "profiles share a file", flags: with(func(f *loadFlags) { f.cpuProfile, f.memProfile = "p.out", "p.out" }), wantErr: "-memprofile"},
		{name: "profile overwrites stats", flags: with(func(f *loadFlags) { f.statsOut, f.cpuProfile = "out/s.json", "out/./s.json" }), wantErr: "-cpuprofile"},
		{name: "profile overwrites bench", flags: with(func(f *loadFlags) { f.benchOut, f.memProfile = "b.json", "b.json" }), wantErr: "-bench-out"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.flags)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags accepted invalid input")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.wantErr)
			}
		})
	}
}

// startProfiles writes both profiles, creating their directories, and a
// run without profile flags writes nothing.
func TestStartProfilesWritesFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "a", "cpu.out"), filepath.Join(dir, "b", "mem.out")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s not written (err %v)", p, err)
		}
	}
	stop, err = startProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
