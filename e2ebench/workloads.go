package main

import (
	"context"
	"sort"
	"time"
)

// The workloads. Sizes and the reasons for them are in README.md.
var (
	// streamSpec: a mid-size world whose KB is small next to its corpus,
	// so retained clusters, not retrieval, dominate each epoch.
	streamSpec = ingestSpec{World: 0.6, Corpus: 0.22, Batch: 8, Orders: 6, Reads: 2048}
	// bigKBSpec: the same stream shape over a KB of tens of thousands of
	// instances, so KB candidate retrieval dominates.
	bigKBSpec = ingestSpec{World: 30, Corpus: 0.22, Batch: 8, Orders: 3, Reads: 2048}
	// mixedSpec: the bigKBSpec world served over HTTP under reads and
	// scheduled ingest and snapshot jobs.
	mixedSpec = serveSpec{
		ingest:       ingestSpec{World: bigKBSpec.World, Corpus: bigKBSpec.Corpus, Batch: 4, Reads: bigKBSpec.Reads},
		setups:       3,
		servings:     2,
		readEvery:    10 * time.Millisecond,
		readInFlight: 8,
		minJobEvery:  300 * time.Millisecond,
		snapEvery:    8,
		pollEvery:    5 * time.Millisecond,
		drain:        60 * time.Second,
	}
)

var workloads = map[string]func(context.Context, runConfig, *result) error{
	"ingest-stream": func(ctx context.Context, cfg runConfig, res *result) error {
		return runIngest(ctx, streamSpec, cfg, res)
	},
	"ingest-bigkb": func(ctx context.Context, cfg runConfig, res *result) error {
		return runIngest(ctx, bigKBSpec, cfg, res)
	},
	"serve-mixed": func(ctx context.Context, cfg runConfig, res *result) error {
		return runServe(ctx, mixedSpec, cfg, res)
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
