// Package stats is a fixture stub mirroring the real registry's
// name-taking method sets for the statnames analyzer tests.
package stats

type Counter struct{ v int64 }

func (c *Counter) Add(d int64) {}

type Histogram struct{}

func (h *Histogram) Observe(v int64) {}

type Gauge struct{ v int64 }

func (g *Gauge) Set(v int64) {}
func (g *Gauge) Add(d int64) {}

type Counters struct{ m map[string]*Counter }

func NewCounters() *Counters { return &Counters{} }

func (c *Counters) Add(name string, d int64)            {}
func (c *Counters) Get(name string) int64               { return 0 }
func (c *Counters) Prefixed(p string) *PrefixedCounters { return &PrefixedCounters{} }

type PrefixedCounters struct{ c *Counters }

func (p *PrefixedCounters) Add(name string, d int64)             {}
func (p *PrefixedCounters) Get(name string) int64                { return 0 }
func (p *PrefixedCounters) Prefixed(pr string) *PrefixedCounters { return p }

type Histograms struct{ m map[string]*Histogram }

func NewHistograms() *Histograms { return &Histograms{} }

func (h *Histograms) Observe(name string, v int64) {}
func (h *Histograms) H(name string) *Histogram     { return nil }
func (h *Histograms) Get(name string) *Histogram   { return nil }

type Gauges struct{ m map[string]*Gauge }

func NewGauges() *Gauges { return &Gauges{} }

func (g *Gauges) G(name string) *Gauge     { return nil }
func (g *Gauges) Set(name string, v int64) {}
func (g *Gauges) Add(name string, d int64) {}
func (g *Gauges) Get(name string) int64    { return 0 }
