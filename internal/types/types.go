// Package types performs semantic analysis of Bamboo programs.
//
// The checker builds symbol tables for classes, flags, fields, methods, and
// tasks; type-checks every method and task body; validates task parameter
// guards, taskexit actions, tag usage, and flagged allocations; and records
// the information (expression types, call targets, identifier resolutions)
// that IR lowering and the static analyses consume.
//
// Bamboo has no global variables: code can only reach its parameters (or
// this) and objects reachable from them, which the name-resolution rules
// here enforce by construction.
package types

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/lexer"
)

// StartupClass is the distinguished class whose creation starts a Bamboo
// program, and StartupFlag the abstract state its instance begins in.
const (
	StartupClass = "StartupObject"
	StartupFlag  = "initialstate"
)

// Error is a semantic error with a source position.
type Error struct {
	Pos lexer.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Class is the checked form of a class declaration.
type Class struct {
	Name        string
	Decl        *ast.ClassDecl // nil for the synthesized StartupObject
	Flags       []string       // declared flags, in declaration order
	FlagIndex   map[string]int // flag name -> bit index
	Fields      []*Field       // in declaration order
	FieldByName map[string]*Field
	Methods     map[string]*Method
	Ctor        *Method // nil when the class has no constructor
}

// HasFlag reports whether the class declares the named flag.
func (c *Class) HasFlag(name string) bool {
	_, ok := c.FlagIndex[name]
	return ok
}

// Field is a checked instance field.
type Field struct {
	Name  string
	Type  *ast.Type
	Index int
}

// Method is a checked method or constructor.
type Method struct {
	Class  *Class
	Name   string
	Decl   *ast.MethodDecl
	Params []*ast.Param
	Ret    *ast.Type // void type for constructors
	IsCtor bool
}

// QName returns the qualified Class.method name.
func (m *Method) QName() string { return m.Class.Name + "." + m.Name }

// Task is a checked task declaration.
type Task struct {
	Name   string
	Decl   *ast.TaskDecl
	Params []*TaskParam
	Index  int // position in Info.Tasks
}

// TaskParam is a checked task parameter: a class-typed object with a flag
// guard and optional tag guards.
type TaskParam struct {
	Name  string
	Class *Class
	Guard ast.FlagExp
	Tags  []*ast.TagGuard
	Index int
}

// CallKind distinguishes user method calls from builtin calls.
type CallKind int

// Call target kinds.
const (
	CallMethod  CallKind = iota // user-defined method or constructor
	CallBuiltin                 // Math.*, System.*, String methods
)

// CallTarget records what a call expression resolves to.
type CallTarget struct {
	Kind    CallKind
	Method  *Method // for CallMethod
	Builtin string  // for CallBuiltin, e.g. "Math.sin", "String.length", "System.printInt"
}

// VarKind classifies what an identifier refers to.
type VarKind int

// Identifier resolution kinds.
const (
	VarLocal VarKind = iota // local variable or parameter
	VarField                // field of the implicit this
	VarTag                  // tag variable (task-level or method tag parameter)
)

// VarRef is the resolution of one identifier use.
type VarRef struct {
	Kind  VarKind
	Name  string
	Type  *ast.Type // nil for VarTag
	Field *Field    // for VarField
}

// Info is the result of semantic analysis.
type Info struct {
	Prog       *ast.Program
	Classes    map[string]*Class
	ClassList  []*Class // sorted by name for deterministic iteration
	Tasks      []*Task
	TaskByName map[string]*Task
	TagTypes   []string // all tag type names, sorted

	// Per-node analysis results consumed by IR lowering.
	ExprTypes map[ast.Expr]*ast.Type
	Calls     map[*ast.Call]*CallTarget
	Idents    map[*ast.Ident]*VarRef
	// NewTagTypes maps each NewTag statement's declared variable, and each
	// tag-guard variable, to its tag type; keyed per task/method scope by
	// the checker during traversal and exposed via TagVarTypes.
	TagVarTypes map[string]string // task-qualified "task.var" or "Class.method.var" -> tag type
}

// Primitive type singletons used by the checker.
var (
	TypeInt     = &ast.Type{Kind: ast.TInt}
	TypeDouble  = &ast.Type{Kind: ast.TDouble}
	TypeBoolean = &ast.Type{Kind: ast.TBoolean}
	TypeString  = &ast.Type{Kind: ast.TString}
	TypeVoid    = &ast.Type{Kind: ast.TVoid}
	typeNull    = &ast.Type{Kind: ast.TClass, Name: "<null>"}
	typeTag     = &ast.Type{Kind: ast.TClass, Name: "tag"}
)

// IsNullType reports whether t is the internal type of the null literal.
func IsNullType(t *ast.Type) bool {
	return t != nil && t.Kind == ast.TClass && t.Name == "<null>"
}

// IsTagType reports whether t is the internal type of tag variables.
func IsTagType(t *ast.Type) bool {
	return t != nil && t.Kind == ast.TClass && t.Name == "tag"
}

// IsRefType reports whether t is a reference type (class, String, or array).
func IsRefType(t *ast.Type) bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case ast.TClass, ast.TString, ast.TArray:
		return true
	}
	return false
}

// Check runs semantic analysis over prog.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Prog:        prog,
			Classes:     map[string]*Class{},
			TaskByName:  map[string]*Task{},
			ExprTypes:   map[ast.Expr]*ast.Type{},
			Calls:       map[*ast.Call]*CallTarget{},
			Idents:      map[*ast.Ident]*VarRef{},
			TagVarTypes: map[string]string{},
		},
		tagTypes: map[string]bool{},
	}
	if err := c.collect(prog); err != nil {
		return nil, err
	}
	if err := c.checkBodies(prog); err != nil {
		return nil, err
	}
	for t := range c.tagTypes {
		c.info.TagTypes = append(c.info.TagTypes, t)
	}
	sort.Strings(c.info.TagTypes)
	return c.info, nil
}

type checker struct {
	info     *Info
	tagTypes map[string]bool

	// Current checking context.
	scope     *scope
	curClass  *Class // nil inside tasks
	curMethod *Method
	curTask   *Task
	scopeKey  string // "task" or "Class.method" prefix for tag var types
	loopDepth int
}

type scope struct {
	parent *scope
	vars   map[string]*VarRef
}

func (c *checker) push() { c.scope = &scope{parent: c.scope, vars: map[string]*VarRef{}} }
func (c *checker) pop()  { c.scope = c.scope.parent }

func (c *checker) declare(name string, ref *VarRef, pos lexer.Pos) error {
	if _, exists := c.scope.vars[name]; exists {
		return &Error{Pos: pos, Msg: fmt.Sprintf("duplicate declaration of %q", name)}
	}
	c.scope.vars[name] = ref
	return nil
}

func (c *checker) lookup(name string) *VarRef {
	for s := c.scope; s != nil; s = s.parent {
		if r, ok := s.vars[name]; ok {
			return r
		}
	}
	return nil
}

func errf(pos lexer.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// collect builds class and task symbol tables, synthesizing StartupObject
// when the program does not declare it.
func (c *checker) collect(prog *ast.Program) error {
	for _, cd := range prog.Classes {
		if _, dup := c.info.Classes[cd.Name]; dup {
			return errf(cd.P, "duplicate class %q", cd.Name)
		}
		cl := &Class{
			Name:        cd.Name,
			Decl:        cd,
			FlagIndex:   map[string]int{},
			FieldByName: map[string]*Field{},
			Methods:     map[string]*Method{},
		}
		for _, f := range cd.Flags {
			if _, dup := cl.FlagIndex[f.Name]; dup {
				return errf(f.P, "duplicate flag %q in class %q", f.Name, cd.Name)
			}
			if len(cl.Flags) >= 64 {
				return errf(f.P, "class %q declares more than 64 flags (abstract states are represented as 64-bit vectors)", cd.Name)
			}
			cl.FlagIndex[f.Name] = len(cl.Flags)
			cl.Flags = append(cl.Flags, f.Name)
		}
		c.info.Classes[cd.Name] = cl
	}
	// Synthesize StartupObject when absent: flag initialstate, field args.
	if _, ok := c.info.Classes[StartupClass]; !ok {
		cl := &Class{
			Name:        StartupClass,
			FlagIndex:   map[string]int{StartupFlag: 0},
			Flags:       []string{StartupFlag},
			FieldByName: map[string]*Field{},
			Methods:     map[string]*Method{},
		}
		argsField := &Field{Name: "args", Type: &ast.Type{Kind: ast.TArray, Elem: &ast.Type{Kind: ast.TString}}, Index: 0}
		cl.Fields = []*Field{argsField}
		cl.FieldByName["args"] = argsField
		c.info.Classes[StartupClass] = cl
	} else if !c.info.Classes[StartupClass].HasFlag(StartupFlag) {
		return errf(c.info.Classes[StartupClass].Decl.P, "class %s must declare flag %s", StartupClass, StartupFlag)
	}
	// Resolve field types and method signatures.
	for _, cd := range prog.Classes {
		cl := c.info.Classes[cd.Name]
		for i, fd := range cd.Fields {
			if err := c.resolveType(fd.Type); err != nil {
				return err
			}
			if _, dup := cl.FieldByName[fd.Name]; dup {
				return errf(fd.P, "duplicate field %q in class %q", fd.Name, cd.Name)
			}
			f := &Field{Name: fd.Name, Type: fd.Type, Index: i}
			cl.Fields = append(cl.Fields, f)
			cl.FieldByName[fd.Name] = f
		}
		for _, md := range cd.Methods {
			isCtor := md.IsConstructor()
			ret := md.Ret
			if isCtor {
				ret = TypeVoid
			} else if err := c.resolveType(ret); err != nil {
				return err
			}
			for _, p := range md.Params {
				if IsTagType(p.Type) {
					continue // tag parameter
				}
				if err := c.resolveType(p.Type); err != nil {
					return err
				}
			}
			m := &Method{Class: cl, Name: md.Name, Decl: md, Params: md.Params, Ret: ret, IsCtor: isCtor}
			if isCtor {
				if cl.Ctor != nil {
					return errf(md.P, "class %q has multiple constructors", cd.Name)
				}
				cl.Ctor = m
			} else {
				if _, dup := cl.Methods[md.Name]; dup {
					return errf(md.P, "duplicate method %q in class %q", md.Name, cd.Name)
				}
				cl.Methods[md.Name] = m
			}
		}
	}
	// Collect tasks.
	for i, td := range prog.Tasks {
		if _, dup := c.info.TaskByName[td.Name]; dup {
			return errf(td.P, "duplicate task %q", td.Name)
		}
		if len(td.Params) == 0 {
			return errf(td.P, "task %q must declare at least one parameter", td.Name)
		}
		task := &Task{Name: td.Name, Decl: td, Index: i}
		for j, tp := range td.Params {
			if tp.Type.Kind != ast.TClass {
				return errf(tp.P, "task parameter %q must have class type, has %s", tp.Name, tp.Type)
			}
			cl, ok := c.info.Classes[tp.Type.Name]
			if !ok {
				return errf(tp.P, "unknown class %q in task parameter", tp.Type.Name)
			}
			if err := c.checkGuard(tp.Guard, cl); err != nil {
				return err
			}
			for _, tg := range tp.Tags {
				c.tagTypes[tg.TagType] = true
			}
			task.Params = append(task.Params, &TaskParam{
				Name: tp.Name, Class: cl, Guard: tp.Guard, Tags: tp.Tags, Index: j,
			})
		}
		c.info.Tasks = append(c.info.Tasks, task)
		c.info.TaskByName[td.Name] = task
	}
	// Deterministic class list.
	for _, cl := range c.info.Classes {
		c.info.ClassList = append(c.info.ClassList, cl)
	}
	sort.Slice(c.info.ClassList, func(i, j int) bool {
		return c.info.ClassList[i].Name < c.info.ClassList[j].Name
	})
	return nil
}

// resolveType verifies that every class named inside t is declared.
func (c *checker) resolveType(t *ast.Type) error {
	switch t.Kind {
	case ast.TClass:
		if _, ok := c.info.Classes[t.Name]; !ok {
			return errf(t.P, "unknown class %q", t.Name)
		}
	case ast.TArray:
		return c.resolveType(t.Elem)
	}
	return nil
}

// checkGuard validates that a flag guard only names flags declared by cl.
func (c *checker) checkGuard(g ast.FlagExp, cl *Class) error {
	switch g := g.(type) {
	case *ast.FlagRef:
		if !cl.HasFlag(g.Name) {
			return errf(g.P, "class %q declares no flag %q", cl.Name, g.Name)
		}
	case *ast.FlagNot:
		return c.checkGuard(g.X, cl)
	case *ast.FlagBin:
		if err := c.checkGuard(g.L, cl); err != nil {
			return err
		}
		return c.checkGuard(g.R, cl)
	case *ast.FlagConst:
		// always fine
	}
	return nil
}

// checkBodies type-checks every method and task body.
func (c *checker) checkBodies(prog *ast.Program) error {
	for _, cd := range prog.Classes {
		cl := c.info.Classes[cd.Name]
		for _, md := range cd.Methods {
			var m *Method
			if md.IsConstructor() {
				m = cl.Ctor
			} else {
				m = cl.Methods[md.Name]
			}
			if err := c.checkMethod(cl, m); err != nil {
				return err
			}
		}
	}
	for _, task := range c.info.Tasks {
		if err := c.checkTask(task); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkMethod(cl *Class, m *Method) error {
	c.curClass, c.curMethod, c.curTask = cl, m, nil
	c.scopeKey = m.QName()
	c.scope = nil
	c.push()
	defer c.pop()
	for _, p := range m.Params {
		if IsTagType(p.Type) {
			if err := c.declare(p.Name, &VarRef{Kind: VarTag, Name: p.Name}, p.P); err != nil {
				return err
			}
			// The tag type of a tag method parameter is unknown statically;
			// record the wildcard "".
			c.info.TagVarTypes[c.scopeKey+"."+p.Name] = ""
			continue
		}
		if err := c.declare(p.Name, &VarRef{Kind: VarLocal, Name: p.Name, Type: p.Type}, p.P); err != nil {
			return err
		}
	}
	if err := c.checkBlock(m.Decl.Body); err != nil {
		return err
	}
	return nil
}

func (c *checker) checkTask(task *Task) error {
	c.curClass, c.curMethod, c.curTask = nil, nil, task
	c.scopeKey = task.Name
	c.scope = nil
	c.push()
	defer c.pop()
	for _, p := range task.Params {
		ty := &ast.Type{Kind: ast.TClass, Name: p.Class.Name}
		if err := c.declare(p.Name, &VarRef{Kind: VarLocal, Name: p.Name, Type: ty}, p.Class.declPos()); err != nil {
			return err
		}
	}
	// Tag guard variables are implicitly declared task-level tag variables;
	// multiple guards may share a variable (that is the point of tags).
	for _, p := range task.Params {
		for _, tg := range p.Tags {
			key := c.scopeKey + "." + tg.Name
			if prev, ok := c.info.TagVarTypes[key]; ok {
				if prev != tg.TagType {
					return errf(tg.P, "tag variable %q used with conflicting tag types %q and %q", tg.Name, prev, tg.TagType)
				}
				continue
			}
			c.info.TagVarTypes[key] = tg.TagType
			if c.lookup(tg.Name) == nil {
				if err := c.declare(tg.Name, &VarRef{Kind: VarTag, Name: tg.Name}, tg.P); err != nil {
					return err
				}
			}
		}
	}
	return c.checkBlock(task.Decl.Body)
}

// declPos returns a position for synthesized declarations.
func (cl *Class) declPos() lexer.Pos {
	if cl.Decl != nil {
		return cl.Decl.P
	}
	return lexer.Pos{Line: 0, Col: 0}
}

func (c *checker) checkBlock(b *ast.Block) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.Block:
		return c.checkBlock(s)
	case *ast.VarDecl:
		if err := c.resolveType(s.Type); err != nil {
			return err
		}
		if s.Init != nil {
			t, err := c.checkExpr(s.Init)
			if err != nil {
				return err
			}
			if !c.assignable(s.Type, t) {
				return errf(s.P, "cannot initialize %s %q with %s", s.Type, s.Name, typeName(t))
			}
		}
		return c.declare(s.Name, &VarRef{Kind: VarLocal, Name: s.Name, Type: s.Type}, s.P)
	case *ast.Assign:
		lt, err := c.checkLValue(s.Target)
		if err != nil {
			return err
		}
		rt, err := c.checkExpr(s.Value)
		if err != nil {
			return err
		}
		if !c.assignable(lt, rt) {
			return errf(s.P, "cannot assign %s to %s", typeName(rt), typeName(lt))
		}
		return nil
	case *ast.OpAssign:
		lt, err := c.checkLValue(s.Target)
		if err != nil {
			return err
		}
		rt, err := c.checkExpr(s.Value)
		if err != nil {
			return err
		}
		if !isNumeric(lt) || !isNumeric(rt) {
			return errf(s.P, "compound assignment requires numeric operands, got %s %s= %s", typeName(lt), s.Op, typeName(rt))
		}
		if lt.Kind == ast.TInt && rt.Kind == ast.TDouble {
			return errf(s.P, "cannot apply %s= with double operand to int target", s.Op)
		}
		return nil
	case *ast.ExprStmt:
		_, err := c.checkExpr(s.X)
		return err
	case *ast.If:
		t, err := c.checkExpr(s.Cond)
		if err != nil {
			return err
		}
		if t.Kind != ast.TBoolean {
			return errf(s.P, "if condition must be boolean, got %s", typeName(t))
		}
		if err := c.checkBlock(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkBlock(s.Else)
		}
		return nil
	case *ast.While:
		t, err := c.checkExpr(s.Cond)
		if err != nil {
			return err
		}
		if t.Kind != ast.TBoolean {
			return errf(s.P, "while condition must be boolean, got %s", typeName(t))
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkBlock(s.Body)
	case *ast.For:
		c.push()
		defer c.pop()
		if s.Init != nil {
			if err := c.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			t, err := c.checkExpr(s.Cond)
			if err != nil {
				return err
			}
			if t.Kind != ast.TBoolean {
				return errf(s.P, "for condition must be boolean, got %s", typeName(t))
			}
		}
		if s.Post != nil {
			if err := c.checkStmt(s.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkBlock(s.Body)
	case *ast.Return:
		if c.curTask != nil {
			return errf(s.P, "return is not allowed in a task body; use taskexit")
		}
		want := c.curMethod.Ret
		if s.Value == nil {
			if want.Kind != ast.TVoid {
				return errf(s.P, "method %s must return %s", c.curMethod.QName(), want)
			}
			return nil
		}
		if want.Kind == ast.TVoid {
			return errf(s.P, "void method %s cannot return a value", c.curMethod.QName())
		}
		t, err := c.checkExpr(s.Value)
		if err != nil {
			return err
		}
		if !c.assignable(want, t) {
			return errf(s.P, "cannot return %s from method returning %s", typeName(t), want)
		}
		return nil
	case *ast.Break, *ast.Continue:
		if c.loopDepth == 0 {
			return errf(s.Pos(), "break/continue outside loop")
		}
		return nil
	case *ast.TaskExit:
		if c.curTask == nil {
			return errf(s.P, "taskexit outside task body")
		}
		seen := map[string]bool{}
		for _, pa := range s.Actions {
			tp := c.taskParam(pa.Param)
			if tp == nil {
				return errf(pa.P, "taskexit names %q, which is not a parameter of task %q", pa.Param, c.curTask.Name)
			}
			if seen[pa.Param] {
				return errf(pa.P, "taskexit repeats parameter %q", pa.Param)
			}
			seen[pa.Param] = true
			if err := c.checkActions(pa.Actions, tp.Class, pa.P); err != nil {
				return err
			}
		}
		return nil
	case *ast.NewTag:
		if c.curTask == nil && c.curMethod == nil {
			return errf(s.P, "tag declaration outside task or method")
		}
		c.tagTypes[s.TagType] = true
		c.info.TagVarTypes[c.scopeKey+"."+s.Name] = s.TagType
		return c.declare(s.Name, &VarRef{Kind: VarTag, Name: s.Name}, s.P)
	}
	return errf(s.Pos(), "unhandled statement %T", s)
}

// taskParam returns the current task's parameter named name, or nil.
func (c *checker) taskParam(name string) *TaskParam {
	if c.curTask == nil {
		return nil
	}
	for _, p := range c.curTask.Params {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// checkActions validates flag/tag actions against the class cl.
func (c *checker) checkActions(actions []ast.Action, cl *Class, pos lexer.Pos) error {
	for _, a := range actions {
		switch a := a.(type) {
		case *ast.FlagAction:
			if !cl.HasFlag(a.Flag) {
				return errf(a.P, "class %q declares no flag %q", cl.Name, a.Flag)
			}
		case *ast.TagAction:
			ref := c.lookup(a.Tag)
			if ref == nil || ref.Kind != VarTag {
				return errf(a.P, "tag action references %q, which is not a tag variable", a.Tag)
			}
		}
	}
	return nil
}

// checkLValue type-checks an assignment target and returns its type.
func (c *checker) checkLValue(e ast.Expr) (*ast.Type, error) {
	switch e := e.(type) {
	case *ast.Ident, *ast.FieldAccess, *ast.Index:
		return c.checkExpr(e)
	}
	return nil, errf(e.Pos(), "invalid assignment target %T", e)
}

// typeName formats a type for error messages, tolerating nil.
func typeName(t *ast.Type) string {
	if t == nil {
		return "<error>"
	}
	if IsNullType(t) {
		return "null"
	}
	return t.String()
}

func isNumeric(t *ast.Type) bool {
	return t != nil && (t.Kind == ast.TInt || t.Kind == ast.TDouble)
}

// assignable reports whether a value of type 'from' may be assigned to a
// location of type 'to' (identity, int->double widening, or null->ref).
func (c *checker) assignable(to, from *ast.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if IsNullType(from) {
		return IsRefType(to)
	}
	if to.Equal(from) {
		return true
	}
	return to.Kind == ast.TDouble && from.Kind == ast.TInt
}

// setType records and returns the type of e.
func (c *checker) setType(e ast.Expr, t *ast.Type) (*ast.Type, error) {
	c.info.ExprTypes[e] = t
	return t, nil
}

func (c *checker) checkExpr(e ast.Expr) (*ast.Type, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return c.setType(e, TypeInt)
	case *ast.FloatLit:
		return c.setType(e, TypeDouble)
	case *ast.BoolLit:
		return c.setType(e, TypeBoolean)
	case *ast.StringLit:
		return c.setType(e, TypeString)
	case *ast.NullLit:
		return c.setType(e, typeNull)
	case *ast.This:
		if c.curClass == nil {
			return nil, errf(e.P, "this outside method body")
		}
		return c.setType(e, &ast.Type{Kind: ast.TClass, Name: c.curClass.Name})
	case *ast.Ident:
		if ref := c.lookup(e.Name); ref != nil {
			if ref.Kind == VarTag {
				c.info.Idents[e] = ref
				return c.setType(e, typeTag)
			}
			c.info.Idents[e] = ref
			return c.setType(e, ref.Type)
		}
		// Unqualified field access inside a method body.
		if c.curClass != nil {
			if f, ok := c.curClass.FieldByName[e.Name]; ok {
				ref := &VarRef{Kind: VarField, Name: e.Name, Type: f.Type, Field: f}
				c.info.Idents[e] = ref
				return c.setType(e, f.Type)
			}
		}
		return nil, errf(e.P, "undefined identifier %q", e.Name)
	case *ast.TagArg:
		ref := c.lookup(e.Name)
		if ref == nil || ref.Kind != VarTag {
			return nil, errf(e.P, "%q is not a tag variable", e.Name)
		}
		return c.setType(e, typeTag)
	case *ast.FieldAccess:
		xt, err := c.checkExpr(e.X)
		if err != nil {
			return nil, err
		}
		if xt.Kind == ast.TArray && e.Name == "length" {
			return c.setType(e, TypeInt)
		}
		if xt.Kind != ast.TClass {
			return nil, errf(e.P, "field access on non-object type %s", typeName(xt))
		}
		cl := c.info.Classes[xt.Name]
		f, ok := cl.FieldByName[e.Name]
		if !ok {
			return nil, errf(e.P, "class %q has no field %q", cl.Name, e.Name)
		}
		return c.setType(e, f.Type)
	case *ast.Index:
		xt, err := c.checkExpr(e.X)
		if err != nil {
			return nil, err
		}
		if xt.Kind != ast.TArray {
			return nil, errf(e.P, "indexing non-array type %s", typeName(xt))
		}
		it, err := c.checkExpr(e.I)
		if err != nil {
			return nil, err
		}
		if it.Kind != ast.TInt {
			return nil, errf(e.P, "array index must be int, got %s", typeName(it))
		}
		return c.setType(e, xt.Elem)
	case *ast.Call:
		return c.checkCall(e)
	case *ast.New:
		cl, ok := c.info.Classes[e.Class]
		if !ok {
			return nil, errf(e.P, "unknown class %q", e.Class)
		}
		var argTypes []*ast.Type
		for _, a := range e.Args {
			t, err := c.checkExpr(a)
			if err != nil {
				return nil, err
			}
			argTypes = append(argTypes, t)
		}
		if cl.Ctor != nil {
			if err := c.checkArgs(cl.Ctor, e.Args, argTypes, e.P); err != nil {
				return nil, err
			}
		} else if len(e.Args) != 0 {
			return nil, errf(e.P, "class %q has no constructor but %d arguments given", e.Class, len(e.Args))
		}
		if err := c.checkActions(e.Actions, cl, e.P); err != nil {
			return nil, err
		}
		return c.setType(e, &ast.Type{Kind: ast.TClass, Name: e.Class})
	case *ast.NewArray:
		if err := c.resolveType(e.Elem); err != nil {
			return nil, err
		}
		lt, err := c.checkExpr(e.Len)
		if err != nil {
			return nil, err
		}
		if lt.Kind != ast.TInt {
			return nil, errf(e.P, "array length must be int, got %s", typeName(lt))
		}
		return c.setType(e, &ast.Type{Kind: ast.TArray, Elem: e.Elem})
	case *ast.Unary:
		xt, err := c.checkExpr(e.X)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "-":
			if !isNumeric(xt) {
				return nil, errf(e.P, "unary - requires numeric operand, got %s", typeName(xt))
			}
			return c.setType(e, xt)
		case "!":
			if xt.Kind != ast.TBoolean {
				return nil, errf(e.P, "! requires boolean operand, got %s", typeName(xt))
			}
			return c.setType(e, TypeBoolean)
		}
		return nil, errf(e.P, "unknown unary operator %q", e.Op)
	case *ast.Binary:
		return c.checkBinary(e)
	case *ast.Cast:
		xt, err := c.checkExpr(e.X)
		if err != nil {
			return nil, err
		}
		if !isNumeric(xt) {
			return nil, errf(e.P, "cast requires numeric operand, got %s", typeName(xt))
		}
		return c.setType(e, e.To)
	}
	return nil, errf(e.Pos(), "unhandled expression %T", e)
}

func (c *checker) checkBinary(e *ast.Binary) (*ast.Type, error) {
	lt, err := c.checkExpr(e.L)
	if err != nil {
		return nil, err
	}
	rt, err := c.checkExpr(e.R)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "+", "-", "*", "/":
		// String concatenation with +.
		if e.Op == "+" && (lt.Kind == ast.TString || rt.Kind == ast.TString) {
			okOperand := func(t *ast.Type) bool {
				return t.Kind == ast.TString || isNumeric(t)
			}
			if okOperand(lt) && okOperand(rt) {
				return c.setType(e, TypeString)
			}
			return nil, errf(e.P, "invalid string concatenation %s + %s", typeName(lt), typeName(rt))
		}
		if !isNumeric(lt) || !isNumeric(rt) {
			return nil, errf(e.P, "%s requires numeric operands, got %s and %s", e.Op, typeName(lt), typeName(rt))
		}
		if lt.Kind == ast.TDouble || rt.Kind == ast.TDouble {
			return c.setType(e, TypeDouble)
		}
		return c.setType(e, TypeInt)
	case "%", "<<", ">>", "&", "|", "^":
		if lt.Kind != ast.TInt || rt.Kind != ast.TInt {
			return nil, errf(e.P, "%s requires int operands, got %s and %s", e.Op, typeName(lt), typeName(rt))
		}
		return c.setType(e, TypeInt)
	case "<", ">", "<=", ">=":
		if !isNumeric(lt) || !isNumeric(rt) {
			return nil, errf(e.P, "%s requires numeric operands, got %s and %s", e.Op, typeName(lt), typeName(rt))
		}
		return c.setType(e, TypeBoolean)
	case "==", "!=":
		switch {
		case isNumeric(lt) && isNumeric(rt),
			lt.Kind == ast.TBoolean && rt.Kind == ast.TBoolean,
			IsRefType(lt) && IsNullType(rt),
			IsNullType(lt) && IsRefType(rt),
			IsNullType(lt) && IsNullType(rt),
			IsRefType(lt) && IsRefType(rt) && lt.Equal(rt):
			return c.setType(e, TypeBoolean)
		}
		return nil, errf(e.P, "cannot compare %s and %s", typeName(lt), typeName(rt))
	case "&&", "||":
		if lt.Kind != ast.TBoolean || rt.Kind != ast.TBoolean {
			return nil, errf(e.P, "%s requires boolean operands, got %s and %s", e.Op, typeName(lt), typeName(rt))
		}
		return c.setType(e, TypeBoolean)
	}
	return nil, errf(e.P, "unknown binary operator %q", e.Op)
}

func (c *checker) checkArgs(m *Method, args []ast.Expr, argTypes []*ast.Type, pos lexer.Pos) error {
	if len(args) != len(m.Params) {
		return errf(pos, "%s expects %d arguments, got %d", m.QName(), len(m.Params), len(args))
	}
	for i, p := range m.Params {
		if IsTagType(p.Type) {
			if _, ok := args[i].(*ast.TagArg); !ok {
				return errf(args[i].Pos(), "argument %d of %s must be a tag (write: tag name)", i+1, m.QName())
			}
			continue
		}
		if _, isTag := args[i].(*ast.TagArg); isTag {
			return errf(args[i].Pos(), "argument %d of %s is not a tag parameter", i+1, m.QName())
		}
		if !c.assignable(p.Type, argTypes[i]) {
			return errf(args[i].Pos(), "argument %d of %s: cannot pass %s as %s", i+1, m.QName(), typeName(argTypes[i]), p.Type)
		}
	}
	return nil
}
