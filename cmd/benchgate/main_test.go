package main

import "testing"

func TestParseBenchLines(t *testing.T) {
	const bench = "BenchmarkEngineThroughput/workers=1"
	cases := []struct {
		name, text string
		want       benchResult
		wantErr    bool
	}{
		{
			name: "GOMAXPROCS=1, no suffix",
			text: "BenchmarkEngineThroughput/workers=1 \t 100\t 12345 ns/op\t 81000 msgs/sec\t 3 allocs/op\n",
			want: benchResult{msgsPerSec: 81000, allocsPerOp: 3, found: true},
		},
		{
			name: "GOMAXPROCS=2, -2 suffix",
			text: "BenchmarkEngineThroughput/workers=1-2 \t 100\t 12345 ns/op\t 79000 msgs/sec\t 4 allocs/op\n",
			want: benchResult{msgsPerSec: 79000, allocsPerOp: 4, found: true},
		},
		{
			name: "GOMAXPROCS=16, -16 suffix",
			text: "BenchmarkEngineThroughput/workers=1-16 100 1 ns/op 5 msgs/sec\n",
			want: benchResult{msgsPerSec: 5, found: true},
		},
		{
			name:    "other series only",
			text:    "BenchmarkEngineThroughput/workers=10-2 100 1 ns/op 5 msgs/sec\nBenchmarkEngineThroughput/workers=1x 100 1 ns/op 5 msgs/sec\n",
			wantErr: true,
		},
		{
			name:    "non-numeric suffix",
			text:    "BenchmarkEngineThroughput/workers=1-a 100 1 ns/op 5 msgs/sec\n",
			wantErr: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseBenchLines(c.text, bench)
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, c.wantErr)
			}
			if !c.wantErr && got != c.want {
				t.Fatalf("got %+v, want %+v", got, c.want)
			}
		})
	}
}
