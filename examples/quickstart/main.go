// Quickstart: the paper's wordcount example (Fig. 5, Codes 1-3) on the
// public API.
//
// A host program stores a text file on the SSD, loads the wordcount
// module, wires Mapper -> Shuffler -> Reducer with typed flow-based
// ports, connects the reducer's output back to the host and prints the
// word frequencies.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"biscuit"
	"biscuit/internal/isfs"
)

// ---- device-side module (what the paper compiles into wordcount.slet) ----

// wcPair is the reducer's output record, like the paper's
// pair<string, uint32_t>.
type wcPair struct {
	Word string
	N    uint32
}

// mapper reads the input file and emits tokens (Code 2).
type mapper struct{}

func (mapper) Spec() biscuit.Spec {
	return biscuit.Spec{Out: []biscuit.SpecType{biscuit.PortOf[string]()}}
}

func (mapper) Run(c *biscuit.Context) error {
	fileName, _ := c.Arg(0).(string)
	f, err := c.OpenFile(fileName, isfs.ReadOnly)
	if err != nil {
		return err
	}
	out, err := biscuit.Out[string](c, 0)
	if err != nil {
		return err
	}
	buf := make([]byte, f.Size())
	if _, err := c.ReadFile(f, 0, buf); err != nil {
		return err
	}
	c.Compute(2 * float64(len(buf))) // tokenizer cost on the device core
	for _, w := range strings.Fields(string(buf)) {
		if !out.Put(strings.ToLower(strings.Trim(w, ".,;:!?\"'"))) {
			break
		}
	}
	return nil
}

// shuffler forwards tokens (with more reducers it would partition them).
type shuffler struct{}

func (shuffler) Spec() biscuit.Spec {
	return biscuit.Spec{
		In:  []biscuit.SpecType{biscuit.PortOf[string]()},
		Out: []biscuit.SpecType{biscuit.PortOf[string]()},
	}
}

func (shuffler) Run(c *biscuit.Context) error {
	in, err := biscuit.In[string](c, 0)
	if err != nil {
		return err
	}
	out, err := biscuit.Out[string](c, 0)
	if err != nil {
		return err
	}
	for {
		w, ok := in.Get()
		if !ok {
			return nil
		}
		if !out.Put(w) {
			return nil
		}
	}
}

// reducer counts tokens and ships <word, freq> pairs to the host.
type reducer struct{}

func (reducer) Spec() biscuit.Spec {
	return biscuit.Spec{
		In:  []biscuit.SpecType{biscuit.PortOf[string]()},
		Out: []biscuit.SpecType{biscuit.PacketPort},
	}
}

func (reducer) Run(c *biscuit.Context) error {
	in, err := biscuit.In[string](c, 0)
	if err != nil {
		return err
	}
	out, err := biscuit.Out[biscuit.Packet](c, 0)
	if err != nil {
		return err
	}
	counts := map[string]uint32{}
	for {
		w, ok := in.Get()
		if !ok {
			break
		}
		c.Compute(30)
		counts[w]++
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		pkt, err := biscuit.Encode(wcPair{w, counts[w]})
		if err != nil {
			return err
		}
		if !out.Put(pkt) {
			break
		}
	}
	return nil
}

func wordcountModule() *biscuit.ModuleImage {
	return biscuit.NewModule("wordcount.slet", 96<<10).
		RegisterSSDLet("idMapper", func() biscuit.SSDlet { return mapper{} }).
		RegisterSSDLet("idShuffler", func() biscuit.SSDlet { return shuffler{} }).
		RegisterSSDLet("idReducer", func() biscuit.SSDlet { return reducer{} })
}

// ---- host-side program (Code 3) ----

const text = `Data-intensive queries are common in business intelligence,
data warehousing and analytics applications. An intuitive way to speed up
such queries is to reduce the volume of data transferred to a host system.
This can be achieved by filtering out extraneous data within the storage,
motivating a form of near-data processing. Data flows through typed and
data-ordered ports. Data filtering is done by hardware in the drive.`

func main() {
	sys := biscuit.NewSystem(biscuit.DefaultConfig())
	sys.Install(wordcountModule())

	took := sys.Run(func(h *biscuit.Host) {
		ssd := h.SSD() // SSD ssd("/dev/nvme0n1")
		f, err := ssd.CreateFile("input.txt")
		if err != nil {
			log.Fatal(err)
		}
		if err := ssd.WriteFile(f, 0, []byte(text)); err != nil {
			log.Fatal(err)
		}

		// Code 3 written out step by step, as the paper lists it; an
		// SSDlet that answers once can use biscuit.Call instead.
		mid, err := ssd.LoadModule("wordcount.slet")
		if err != nil {
			log.Fatal(err)
		}
		wc := ssd.NewApplication()
		m, err := wc.NewSSDLet(mid, "idMapper", "input.txt")
		if err != nil {
			log.Fatal(err)
		}
		s, err := wc.NewSSDLet(mid, "idShuffler")
		if err != nil {
			log.Fatal(err)
		}
		r, err := wc.NewSSDLet(mid, "idReducer")
		if err != nil {
			log.Fatal(err)
		}
		must(wc.Connect(m.Out(0), s.In(0)))
		must(wc.Connect(s.Out(0), r.In(0)))
		port, err := biscuit.ConnectTo[wcPair](wc, r.Out(0))
		if err != nil {
			log.Fatal(err)
		}
		must(wc.Start())

		fmt.Println("word\tfreq")
		top := 0
		for {
			v, ok := port.Get()
			if !ok {
				break
			}
			if v.N > 1 {
				fmt.Printf("%s\t%d\n", v.Word, v.N)
				top++
			}
		}
		must(wc.Wait())
		must(ssd.UnloadModule(mid))
	})
	fmt.Printf("\nwordcount ran in %v of device time\n", took)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
