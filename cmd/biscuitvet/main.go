// Command biscuitvet is the repository's invariant checker: a
// multichecker for the analyzers under internal/analysis, speaking the
// `go vet -vettool` protocol.
//
// Run it through the go command, which computes export data for every
// dependency and hands this tool one JSON config per package:
//
//	go build -o bin/biscuitvet ./cmd/biscuitvet
//	go vet -vettool=$(pwd)/bin/biscuitvet ./...
//
// (or just `make vet`). The tool re-implements the core of
// golang.org/x/tools/go/analysis/unitchecker on the standard library
// alone — this module builds offline with no dependencies, so x/tools
// is not available. The protocol is small: `-V=full` prints an
// identity for the build cache, `-flags` declares supported flags, and
// an invocation with a *.cfg argument analyzes one package.
//
// Facts: the dataflow analyzers (arenaescape, eventpurity) exchange
// per-object facts across package boundaries. Dependency passes
// (VetxOnly) of this module's packages run the fact-producing analyzers
// and persist their exports in the package's .vetx file; because each
// .vetx carries the package's own facts merged with everything it
// imported, loading the direct dependencies' files is enough to see the
// whole transitive closure. Standard-library packages get an empty
// .vetx without analysis.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"

	"biscuit/internal/analysis/arenaescape"
	"biscuit/internal/analysis/detrand"
	"biscuit/internal/analysis/eventpurity"
	"biscuit/internal/analysis/fiberyield"
	"biscuit/internal/analysis/framework"
	"biscuit/internal/analysis/portcheck"
	"biscuit/internal/analysis/spanbalance"
	"biscuit/internal/analysis/walltime"
)

// analyzers is the suite. Order fixes the order of same-position
// diagnostics, keeping output deterministic.
var analyzers = []*framework.Analyzer{
	arenaescape.Analyzer,
	detrand.Analyzer,
	eventpurity.Analyzer,
	fiberyield.Analyzer,
	portcheck.Analyzer,
	spanbalance.Analyzer,
	walltime.Analyzer,
}

// modulePrefix gates fact analysis of dependency packages: only this
// module's packages can carry facts the analyzers care about.
const modulePrefix = "biscuit"

func main() {
	log.SetFlags(0)
	log.SetPrefix("biscuitvet: ")
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		printVersion()
		return
	case len(args) == 1 && args[0] == "-flags":
		// The tool takes no flags of its own.
		fmt.Println(`[]`)
		return
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		log.Fatalf("this tool is a go vet backend; run:  go vet -vettool=$(command -v biscuitvet) ./...\n(analyzers: %s)", names())
	}
	run(args[0])
}

func names() string {
	var ns []string
	for _, a := range analyzers {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ", ")
}

// printVersion emits the identity line the go command hashes into its
// build cache key. Hashing the executable itself makes the cache
// invalidate whenever the tool is rebuilt with different analyzers.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("biscuitvet version devel buildID=%x\n", h.Sum(nil))
}

// vetConfig mirrors the JSON the go command writes for each vetted
// package (cmd/go/internal/work's vetConfig).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredGoFiles            []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// lookup resolves an import path as written in source to that
// package's export data, via the go command's vendor/module mapping.
func (cfg *vetConfig) lookup(path string) (io.ReadCloser, error) {
	if mapped, ok := cfg.ImportMap[path]; ok {
		path = mapped
	}
	file, ok := cfg.PackageFile[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

// factPrototypes maps each fact-carrying analyzer to its registered
// fact types, for decoding dependency .vetx files.
func factPrototypes() map[string][]framework.Fact {
	protos := map[string][]framework.Fact{}
	for _, a := range analyzers {
		if len(a.FactTypes) > 0 {
			protos[a.Name] = a.FactTypes
		}
	}
	return protos
}

// writeVetx materializes the facts file the go command expects after
// every invocation.
func writeVetx(path string, data []byte) {
	if path == "" {
		return
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		log.Fatal(err)
	}
}

func run(cfgFile string) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("parsing %s: %v", cfgFile, err)
	}

	// Only this module's packages produce facts; everything else
	// (standard library dependency passes) just needs the empty file.
	inModule := cfg.ImportPath == modulePrefix || strings.HasPrefix(cfg.ImportPath, modulePrefix+"/")
	if (cfg.VetxOnly && !inModule) || len(cfg.GoFiles) == 0 {
		writeVetx(cfg.VetxOutput, nil)
		return
	}

	// Merge the facts of every direct dependency. Each dependency's
	// .vetx already holds its own transitive view, so one level is the
	// whole closure. Missing files (e.g. cached factless runs from an
	// older tool) read as empty.
	facts := framework.NewFactStore()
	protos := factPrototypes()
	var vetxFiles []string
	for _, f := range cfg.PackageVetx {
		vetxFiles = append(vetxFiles, f)
	}
	sort.Strings(vetxFiles)
	for _, f := range vetxFiles {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		if err := facts.Decode(raw, protos); err != nil {
			log.Fatalf("reading facts %s: %v", f, err)
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx(cfg.VetxOutput, nil)
				return
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	tc := &types.Config{
		Importer:  importer.ForCompiler(fset, compiler, cfg.lookup),
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(compiler, runtime.GOARCH),
		Error:     func(error) {}, // keep going; Check's return carries the first error
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx(cfg.VetxOutput, nil)
			return
		}
		log.Fatalf("type-checking %s: %v", cfg.ImportPath, err)
	}

	// Dependency passes only need the fact-producing analyzers; their
	// diagnostics are discarded (the package is re-vetted as a target).
	suite := analyzers
	if cfg.VetxOnly {
		suite = nil
		for _, a := range analyzers {
			if len(a.FactTypes) > 0 {
				suite = append(suite, a)
			}
		}
	}

	var diags []framework.Diagnostic
	for _, a := range suite {
		pass := framework.NewPass(a, fset, files, pkg, info, func(d framework.Diagnostic) {
			diags = append(diags, d)
		})
		pass.Facts = facts
		if err := a.Run(pass); err != nil {
			log.Fatalf("analyzer %s on %s: %v", a.Name, cfg.ImportPath, err)
		}
	}

	// The pass's exports landed in the shared store; persist the merged
	// view for dependents.
	encoded, err := facts.Encode()
	if err != nil {
		log.Fatal(err)
	}
	writeVetx(cfg.VetxOutput, encoded)
	if cfg.VetxOnly {
		return
	}

	// Every waiver must say why: a bare //biscuitvet:ignore is itself a
	// finding.
	diags = append(diags, framework.CheckIgnoreDirectives(files)...)
	if len(diags) == 0 {
		return
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })

	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	os.Exit(2)
}
