package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusKeep names the exported identifiers that no non-test file uses but
// that stay, each with the reason it stays. Keys are "pkg.Name" for a
// package-level identifier and "pkg.Type.Name" for a method or field, with
// pkg the import path below the module ("internal/simnet").
var censusKeep = map[string]string{
	// Tests read product state through these, or inject a fault or build a
	// fixture with them.
	"internal/simnet.Fabric.Exchanges":       "core, dnsio and resolver tests count the exchanges a path made",
	"internal/simnet.Fabric.Drops":           "core and simnet fault tests check that dropped datagrams were booked",
	"internal/simnet.Fabric.QueriesTo":       "core, resolver and root tests count the queries a server received",
	"internal/simnet.Fabric.Destinations":    "simnet's book-balance tests sum the per-host books",
	"internal/simnet.Fabric.FaultDrops":      "simnet's book-balance and fault tests read what a profile swallowed",
	"internal/simnet.Fabric.SpoofsInjected":  "core and simnet fault tests check that spoofed replies were sent",
	"internal/simnet.Fabric.GarbageInjected": "simnet's book-balance and fault tests check that garbage was sent",
	"internal/simnet.Fabric.SetLossRate":     "core and dnsio tests inject fabric-wide loss",
	"internal/simnet.Fabric.FaultFor":        "dnsio and simnet tests read back an endpoint's fault profile",
	"internal/ipam.DB.MustAllocate":          "tests of five packages build fixtures with it",
	"internal/dns.MustParseRR":               "tests of seven packages build records from zone-file text",
	"internal/resolver.Recursive.LookupA":    "resolver and scenario tests resolve a name with it",
	"internal/zone.Zone.MemoSize":            "authority and hosting tests check the zone memo's fill and cap",
	"internal/resolver.Recursive.CacheSize":  "resolver tests count cached questions: none while caching is off, none added by a hit, none past the question cap",
	"internal/authority.Server.Queries":      "authority and core tests count the queries a server answered",
	"internal/dnsio.BreakerSet.Open":         "dnsio's breaker tests check which servers' breakers are open",
	"internal/fleet.Coordinator.Addr":        "fleet tests dial the coordinator's listener",
	"internal/dnsio.XfrResult.Serial":        "urwatch's transfer tests read a transfer's serial",
	"internal/threatintel.Aggregator.Vendor": "core and urwatch tests flag an address with one vendor",
	// Kept as API.
	"internal/dnsio.Client.QueryWire":                   "the owned-bytes exchange TestQueryIntoMatchesQuery holds QueryInto to",
	"internal/hosting.Provider.CompleteTXTVerification": "the only model of the TXT-challenge mitigation",
	"internal/hosting.Provider.Retrieve":                "the only model of the domain-retrieval mitigation",
}

// TestCensus fails on each exported identifier outside the root package that
// no non-test Go file in the module uses: a package-level name, a method or
// a field of a package-level struct. A method by which its type implements an
// interface the module declares, and String and Error, are reached through
// interfaces and are not counted. Run it with -v to see the packages it read.
func TestCensus(t *testing.T) {
	fset := token.NewFileSet()
	c := &census{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{},
		dirs: map[string]string{},
		used: map[types.Object]bool{},
		kept: map[string]bool{},
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() {
			if bp, err := build.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
				c.dirs[importPath(path)] = path
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(c.dirs))
	for p := range c.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := c.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}
	var unused []string
	for _, p := range paths {
		pkg := c.pkgs[p]
		if p == "repro" || pkg.Name() == "main" {
			continue
		}
		t.Logf("read %s", p)
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				unused = c.check(unused, p, name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !c.implements(named, m.Name()) {
					unused = c.check(unused, p, name+"."+m.Name(), m)
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						unused = c.check(unused, p, name+"."+f.Name(), f)
					}
				}
			}
		}
	}
	for key, why := range censusKeep {
		if why == "" {
			t.Errorf("keep-list entry %s has no reason", key)
		}
		if !c.kept[key] {
			t.Errorf("keep-list entry %s names nothing unused: drop it", key)
		}
	}
	for _, u := range unused {
		t.Errorf("exported but used by no non-test file: %s", u)
	}
}

type census struct {
	fset   *token.FileSet
	std    types.ImporterFrom
	pkgs   map[string]*types.Package
	dirs   map[string]string // import path -> directory
	used   map[types.Object]bool
	ifaces []*types.Interface // the interface types the module declares
	kept   map[string]bool
}

func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

func (c *census) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

// ImportFrom type-checks a module package from its non-test files, once,
// recording every object those files use; anything else comes from the
// standard library's source.
func (c *census) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	src, ok := c.dirs[path]
	if !ok {
		return c.std.ImportFrom(path, dir, mode)
	}
	bp, err := build.ImportDir(src, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(src, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = pkg
	for _, obj := range info.Uses {
		c.used[origin(obj)] = true
	}
	for _, name := range pkg.Scope().Names() {
		if it, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
			c.ifaces = append(c.ifaces, it)
		}
	}
	return pkg, nil
}

// origin maps a method or field of an instantiated generic type back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (c *census) check(unused []string, pkg, name string, obj types.Object) []string {
	if c.used[obj] {
		return unused
	}
	key := strings.TrimPrefix(pkg, "repro/") + "." + name
	if _, ok := censusKeep[key]; ok {
		c.kept[key] = true
		return unused
	}
	return append(unused, key)
}

// implements reports whether method is reached through an interface: it is
// String or Error, or t (or *t) implements an interface of the module that
// names it.
func (c *census) implements(t *types.Named, method string) bool {
	if method == "String" || method == "Error" {
		return true
	}
	for _, it := range c.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
