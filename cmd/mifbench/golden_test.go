package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutput runs each experiment at -scale 0.25 and compares what
// it prints, byte for byte, with testdata/<exp>.txt. The simulator is
// deterministic, so any difference is a change to a simulated result.
// After checking that a change is intended, regenerate one golden from the
// repository root with
//
//	go run ./cmd/mifbench -scale 0.25 <exp> > cmd/mifbench/testdata/<exp>.txt
func TestGoldenOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("golden runs are slow under -race; make racesmoke covers determinism there")
	}
	for _, tc := range []struct {
		name string
		run  func(float64) error
	}{
		{"fig6a", runFig6a},
		{"fig6b", runFig6b},
		{"fig7", runFig7},
		{"table1", runTable1},
		{"fig10", runFig10},
		{"ablation", runAblation},
		{"defrag", runDefrag},
		{"cache", runCache},
		{"failover", runFailover},
		{"crashsweep", runCrashSweep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, func() error { return tc.run(0.25) })
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from testdata/%s.txt\n--- got ---\n%s\n--- want ---\n%s", tc.name, got, want)
			}
		})
	}
}

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := fn()
	w.Close()
	got := <-out
	if runErr != nil {
		t.Fatal(runErr)
	}
	return got
}
