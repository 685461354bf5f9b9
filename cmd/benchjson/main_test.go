package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: ovshighway
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkEMCLookup/emc    	65156317	        16.43 ns/op	       0 B/op	       0 allocs/op
BenchmarkPMDBatch/ecmp-adaptive 	  278048	      8312 ns/op	   3.85 MB/s	       0 B/op	       0 allocs/op
PASS
ok  	ovshighway	12.3s
`

func TestConvert(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d records, want 2:\n%s", len(lines), out.String())
	}
	var recs []record
	for _, l := range lines {
		var r record
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("record not valid JSON: %v\n%s", err, l)
		}
		recs = append(recs, r)
	}
	first := recs[0]
	if first.Name != "BenchmarkEMCLookup/emc" || first.Iterations != 65156317 {
		t.Fatalf("first record mis-parsed: %+v", first)
	}
	if first.Goos != "linux" || first.Pkg != "ovshighway" || first.CPU == "" {
		t.Fatalf("context not folded into record: %+v", first)
	}
	if first.Metrics["ns/op"] != 16.43 || first.Metrics["allocs/op"] != 0 {
		t.Fatalf("metrics mis-parsed: %+v", first.Metrics)
	}
	second := recs[1]
	if second.Name != "BenchmarkPMDBatch/ecmp-adaptive" {
		t.Fatalf("second record mis-parsed: %+v", second)
	}
	if second.Metrics["MB/s"] != 3.85 || second.Metrics["ns/op"] != 8312 {
		t.Fatalf("throughput metric mis-parsed: %+v", second.Metrics)
	}
}

func TestConvertSkipsNonBenchLines(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader("PASS\nok  \tovshighway\t1.0s\nBenchmarkBroken notanumber\n"), &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("junk input produced records: %s", out.String())
	}
}

func TestConvertProcsSuffix(t *testing.T) {
	in := "BenchmarkKeyHash/tuple-2   1000   11.5 ns/op\n" +
		"BenchmarkPMDBatch/ecmp-adaptive   1000   8312 ns/op\n"
	var out bytes.Buffer
	if err := convert(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&out)
	for _, want := range []record{
		{Name: "BenchmarkKeyHash/tuple-2", Procs: 2},
		{Name: "BenchmarkPMDBatch/ecmp-adaptive", Procs: 1},
	} {
		var r record
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.Name != want.Name || r.Procs != want.Procs {
			t.Fatalf("got name %q procs %d, want %q procs %d", r.Name, r.Procs, want.Name, want.Procs)
		}
	}
}
