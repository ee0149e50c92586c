// Command apidump prints the exported API surface of the stable model
// packages (internal/offload, internal/machine, internal/learn,
// internal/wire, internal/server, internal/client, internal/cluster,
// internal/metrics by default) in a
// deterministic, diff-friendly text
// form: one line per
// exported declaration, const/var blocks kept whole so enum ordering is
// part of the surface, struct and interface bodies pruned to their
// exported members.
//
// The committed snapshot lives at api/exported.txt. scripts/check.sh
// runs `apidump -check api/exported.txt` so any change to the exported
// surface — a renamed method, a reordered enum, a new field — fails the
// gate until the snapshot is regenerated (make api) and reviewed with
// the change that caused it.
//
// Usage:
//
//	apidump                         # dump default packages to stdout
//	apidump internal/trace          # dump a specific package
//	apidump -check api/exported.txt # diff against snapshot, exit 1 on drift
//	apidump -config-fields          # only the number of exported *Config fields (make loc)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"sort"
	"strings"
)

func main() {
	check := flag.String("check", "",
		"snapshot file to compare against; exits non-zero on any drift")
	countOnly := flag.Bool("config-fields", false,
		"print only how many exported fields the exported *Config structs have: the options a caller can set")
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{"internal/offload", "internal/machine", "internal/learn",
			"internal/wire", "internal/server", "internal/client",
			"internal/cluster", "internal/metrics"}
	}

	var out bytes.Buffer
	for _, dir := range dirs {
		if err := dumpDir(&out, dir); err != nil {
			fmt.Fprintln(os.Stderr, "apidump:", err)
			os.Exit(1)
		}
	}

	if *countOnly {
		fmt.Println(configFields)
		return
	}
	if *check == "" {
		os.Stdout.Write(out.Bytes())
		return
	}
	want, err := os.ReadFile(*check)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apidump: cannot read snapshot: %v\n", err)
		fmt.Fprintf(os.Stderr, "apidump: regenerate with `make api`\n")
		os.Exit(1)
	}
	if bytes.Equal(out.Bytes(), want) {
		fmt.Printf("apidump: exported surface matches %s\n", *check)
		return
	}
	fmt.Fprintf(os.Stderr, "apidump: exported API surface drifted from %s\n", *check)
	reportDrift(want, out.Bytes())
	fmt.Fprintf(os.Stderr, "apidump: if the change is intentional, regenerate with `make api` and commit the snapshot with it\n")
	os.Exit(1)
}

// dumpDir appends the exported surface of one package directory.
func dumpDir(out *bytes.Buffer, dir string) error {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var entries []string
		files := make([]string, 0, len(pkgs[name].Files))
		for f := range pkgs[name].Files {
			files = append(files, f)
		}
		sort.Strings(files)
		for _, f := range files {
			entries = append(entries, fileEntries(fset, pkgs[name].Files[f])...)
		}
		sort.Strings(entries)
		fmt.Fprintf(out, "package %s (%s)\n", name, dir)
		for _, e := range entries {
			fmt.Fprintf(out, "  %s\n", e)
		}
	}
	return nil
}

// fileEntries renders each exported top-level declaration of one file as
// a normalized single line.
func fileEntries(fset *token.FileSet, f *ast.File) []string {
	var entries []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedRecv(d.Recv) {
				continue
			}
			fn := *d
			fn.Doc, fn.Body = nil, nil
			entries = append(entries, render(fset, &fn))
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				continue
			}
			if e := genDeclEntry(fset, d); e != "" {
				entries = append(entries, e)
			}
		}
	}
	return entries
}

// exportedRecv reports whether a receiver (nil for plain functions)
// names an exported type — methods on unexported types are not surface.
func exportedRecv(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return true
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// configFields counts, over everything dumped, the exported fields of the
// exported struct types named *Config.
var configFields int

// genDeclEntry renders a const/var/type declaration with unexported
// names, struct fields, and interface methods pruned. Const/var blocks
// stay whole so iota ordering changes show up in the snapshot.
func genDeclEntry(fset *token.FileSet, d *ast.GenDecl) string {
	g := *d
	g.Doc = nil
	var specs []ast.Spec
	exported := false
	for _, spec := range g.Specs {
		switch s := spec.(type) {
		case *ast.ValueSpec:
			if !anyExported(s.Names) {
				// Within an iota block an unexported spec still advances
				// the counter; keep a placeholder so values stay honest.
				if d.Tok == token.CONST && len(g.Specs) > 1 {
					specs = append(specs, &ast.ValueSpec{
						Names: []*ast.Ident{ast.NewIdent("_")}})
				}
				continue
			}
			c := *s
			c.Doc, c.Comment = nil, nil
			specs = append(specs, &c)
			exported = true
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			c := *s
			c.Doc, c.Comment = nil, nil
			c.Type = pruneType(c.Type)
			if st, ok := c.Type.(*ast.StructType); ok && strings.HasSuffix(c.Name.Name, "Config") {
				for _, f := range st.Fields.List {
					configFields += len(f.Names)
				}
			}
			specs = append(specs, &c)
			exported = true
		}
	}
	if !exported {
		return ""
	}
	g.Specs = specs
	return render(fset, &g)
}

func anyExported(names []*ast.Ident) bool {
	for _, n := range names {
		if n.IsExported() {
			return true
		}
	}
	return false
}

// pruneType drops unexported members from struct and interface bodies;
// everything else is surface as written.
func pruneType(t ast.Expr) ast.Expr {
	switch x := t.(type) {
	case *ast.StructType:
		s := *x
		s.Fields = pruneFields(x.Fields)
		return &s
	case *ast.InterfaceType:
		i := *x
		i.Methods = pruneFields(x.Methods)
		return &i
	}
	return t
}

func pruneFields(fl *ast.FieldList) *ast.FieldList {
	if fl == nil {
		return nil
	}
	out := &ast.FieldList{}
	for _, f := range fl.List {
		keep := len(f.Names) == 0 // embedded field or interface embedding
		for _, n := range f.Names {
			if n.IsExported() {
				keep = true
			}
		}
		if !keep {
			continue
		}
		c := *f
		c.Doc, c.Comment = nil, nil
		out.List = append(out.List, &c)
	}
	return out
}

// render pretty-prints a declaration and collapses it to one line so the
// snapshot sorts and diffs per declaration.
func render(fset *token.FileSet, node ast.Node) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.RawFormat}
	if err := cfg.Fprint(&buf, fset, node); err != nil {
		return fmt.Sprintf("<render error: %v>", err)
	}
	lines := strings.Split(strings.ReplaceAll(buf.String(), "\t", " "), "\n")
	parts := lines[:0]
	for _, l := range lines {
		if l = strings.Join(strings.Fields(l), " "); l != "" {
			parts = append(parts, l)
		}
	}
	return strings.Join(parts, " ")
}

// reportDrift prints a minimal line diff between snapshot and current.
func reportDrift(want, got []byte) {
	wl := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	gl := strings.Split(strings.TrimRight(string(got), "\n"), "\n")
	wset := make(map[string]bool, len(wl))
	for _, l := range wl {
		wset[l] = true
	}
	gset := make(map[string]bool, len(gl))
	for _, l := range gl {
		gset[l] = true
	}
	for _, l := range wl {
		if !gset[l] {
			fmt.Fprintf(os.Stderr, "  - %s\n", l)
		}
	}
	for _, l := range gl {
		if !wset[l] {
			fmt.Fprintf(os.Stderr, "  + %s\n", l)
		}
	}
}
