// Package parser builds Bamboo ASTs from token streams.
//
// The grammar is the Java-like imperative subset used by the Bamboo
// benchmarks extended with the task grammar of Figure 5 of the paper:
// flag declarations, task declarations with flag/tag parameter guards,
// taskexit statements, tag allocation, and flagged new-expressions.
package parser

import (
	"fmt"
	"strconv"

	"repro/internal/ast"
	"repro/internal/lexer"
)

// Error is a parse error with a source position.
type Error struct {
	Pos lexer.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type parser struct {
	toks []lexer.Token
	pos  int
}

// Parse tokenizes and parses a whole Bamboo program.
func Parse(src string) (*ast.Program, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.program()
}

func (p *parser) cur() lexer.Token { return p.toks[p.pos] }
func (p *parser) peek() lexer.Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() lexer.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) at(k lexer.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k lexer.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k lexer.Kind) (lexer.Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return lexer.Token{}, p.errorf("expected %s, found %s", k, p.cur())
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// program := (classdecl | taskdecl)* EOF
func (p *parser) program() (*ast.Program, error) {
	prog := &ast.Program{}
	for !p.at(lexer.EOF) {
		switch p.cur().Kind {
		case lexer.KwClass:
			c, err := p.classDecl()
			if err != nil {
				return nil, err
			}
			prog.Classes = append(prog.Classes, c)
		case lexer.KwTask:
			t, err := p.taskDecl()
			if err != nil {
				return nil, err
			}
			prog.Tasks = append(prog.Tasks, t)
		default:
			return nil, p.errorf("expected class or task declaration, found %s", p.cur())
		}
	}
	return prog, nil
}

// classdecl := "class" IDENT "{" member* "}"
func (p *parser) classDecl() (*ast.ClassDecl, error) {
	kw, err := p.expect(lexer.KwClass)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.LBrace); err != nil {
		return nil, err
	}
	c := &ast.ClassDecl{Name: name.Text, P: kw.Pos}
	for !p.at(lexer.RBrace) {
		if p.at(lexer.EOF) {
			return nil, p.errorf("unexpected EOF in class %s", c.Name)
		}
		if p.at(lexer.KwFlag) {
			fd := p.next()
			fn, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.Semi); err != nil {
				return nil, err
			}
			c.Flags = append(c.Flags, &ast.FlagDecl{Name: fn.Text, P: fd.Pos})
			continue
		}
		// Constructor: IDENT(==class name) "(" ...
		if p.at(lexer.Ident) && p.cur().Text == c.Name && p.peek().Kind == lexer.LParen {
			ctorTok := p.next()
			params, err := p.paramList()
			if err != nil {
				return nil, err
			}
			body, err := p.block()
			if err != nil {
				return nil, err
			}
			c.Methods = append(c.Methods, &ast.MethodDecl{
				Ret: nil, Name: ctorTok.Text, Params: params, Body: body, P: ctorTok.Pos,
			})
			continue
		}
		// Field or method: type IDENT (";" | "(")
		ty, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		id, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		if p.at(lexer.LParen) {
			params, err := p.paramList()
			if err != nil {
				return nil, err
			}
			body, err := p.block()
			if err != nil {
				return nil, err
			}
			c.Methods = append(c.Methods, &ast.MethodDecl{
				Ret: ty, Name: id.Text, Params: params, Body: body, P: id.Pos,
			})
		} else {
			if _, err := p.expect(lexer.Semi); err != nil {
				return nil, err
			}
			c.Fields = append(c.Fields, &ast.FieldDecl{Type: ty, Name: id.Text, P: id.Pos})
		}
	}
	p.next() // consume }
	return c, nil
}

// paramList := "(" [param ("," param)*] ")"
// param := type IDENT | "tag" IDENT
func (p *parser) paramList() ([]*ast.Param, error) {
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	var params []*ast.Param
	for !p.at(lexer.RParen) {
		if len(params) > 0 {
			if _, err := p.expect(lexer.Comma); err != nil {
				return nil, err
			}
		}
		if p.at(lexer.KwTag) {
			// Tag parameter: "tag t". Represented as a class-kind type named "tag".
			tagTok := p.next()
			id, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			params = append(params, &ast.Param{
				Type: &ast.Type{Kind: ast.TClass, Name: "tag", P: tagTok.Pos},
				Name: id.Text, P: id.Pos,
			})
			continue
		}
		ty, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		id, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		params = append(params, &ast.Param{Type: ty, Name: id.Text, P: id.Pos})
	}
	p.next() // consume )
	return params, nil
}

// typeRef := basetype ("[" "]")*
// basetype := int | double | boolean | String | void | IDENT
func (p *parser) typeRef() (*ast.Type, error) {
	t := p.cur()
	var base *ast.Type
	switch t.Kind {
	case lexer.KwInt:
		base = &ast.Type{Kind: ast.TInt, P: t.Pos}
	case lexer.KwDouble:
		base = &ast.Type{Kind: ast.TDouble, P: t.Pos}
	case lexer.KwBoolean:
		base = &ast.Type{Kind: ast.TBoolean, P: t.Pos}
	case lexer.KwString:
		base = &ast.Type{Kind: ast.TString, P: t.Pos}
	case lexer.KwVoid:
		base = &ast.Type{Kind: ast.TVoid, P: t.Pos}
	case lexer.Ident:
		base = &ast.Type{Kind: ast.TClass, Name: t.Text, P: t.Pos}
	default:
		return nil, p.errorf("expected type, found %s", t)
	}
	p.next()
	for p.at(lexer.LBracket) && p.peek().Kind == lexer.RBracket {
		p.next()
		p.next()
		base = &ast.Type{Kind: ast.TArray, Elem: base, P: t.Pos}
	}
	return base, nil
}

// taskdecl := "task" IDENT "(" taskparam ("," taskparam)* ")" block
func (p *parser) taskDecl() (*ast.TaskDecl, error) {
	kw := p.next()
	name, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	task := &ast.TaskDecl{Name: name.Text, P: kw.Pos}
	for !p.at(lexer.RParen) {
		if len(task.Params) > 0 {
			if _, err := p.expect(lexer.Comma); err != nil {
				return nil, err
			}
		}
		tp, err := p.taskParam()
		if err != nil {
			return nil, err
		}
		task.Params = append(task.Params, tp)
	}
	p.next() // consume )
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	task.Body = body
	return task, nil
}

// taskparam := type IDENT "in" flagexp ["with" tagexp]
func (p *parser) taskParam() (*ast.TaskParam, error) {
	ty, err := p.typeRef()
	if err != nil {
		return nil, err
	}
	id, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.KwIn); err != nil {
		return nil, err
	}
	guard, err := p.flagOr()
	if err != nil {
		return nil, err
	}
	tp := &ast.TaskParam{Type: ty, Name: id.Text, Guard: guard, P: id.Pos}
	if p.accept(lexer.KwWith) {
		for {
			tt, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			tn, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			tp.Tags = append(tp.Tags, &ast.TagGuard{TagType: tt.Text, Name: tn.Text, P: tt.Pos})
			if !p.accept(lexer.KwAnd) {
				break
			}
		}
	}
	return tp, nil
}

// flagexp precedence: or < and < not < atom
func (p *parser) flagOr() (ast.FlagExp, error) {
	l, err := p.flagAnd()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.KwOr) || p.at(lexer.OrOr) {
		op := p.next()
		r, err := p.flagAnd()
		if err != nil {
			return nil, err
		}
		l = &ast.FlagBin{Op: "or", L: l, R: r, P: op.Pos}
	}
	return l, nil
}

func (p *parser) flagAnd() (ast.FlagExp, error) {
	l, err := p.flagUnary()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.KwAnd) || p.at(lexer.AndAnd) {
		op := p.next()
		r, err := p.flagUnary()
		if err != nil {
			return nil, err
		}
		l = &ast.FlagBin{Op: "and", L: l, R: r, P: op.Pos}
	}
	return l, nil
}

func (p *parser) flagUnary() (ast.FlagExp, error) {
	switch p.cur().Kind {
	case lexer.Not:
		t := p.next()
		x, err := p.flagUnary()
		if err != nil {
			return nil, err
		}
		return &ast.FlagNot{X: x, P: t.Pos}, nil
	case lexer.LParen:
		p.next()
		x, err := p.flagOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
		return x, nil
	case lexer.KwTrue:
		t := p.next()
		return &ast.FlagConst{Value: true, P: t.Pos}, nil
	case lexer.KwFalse:
		t := p.next()
		return &ast.FlagConst{Value: false, P: t.Pos}, nil
	case lexer.Ident:
		t := p.next()
		return &ast.FlagRef{Name: t.Text, P: t.Pos}, nil
	}
	return nil, p.errorf("expected flag expression, found %s", p.cur())
}

// block := "{" stmt* "}"
func (p *parser) block() (*ast.Block, error) {
	lb, err := p.expect(lexer.LBrace)
	if err != nil {
		return nil, err
	}
	b := &ast.Block{P: lb.Pos}
	for !p.at(lexer.RBrace) {
		if p.at(lexer.EOF) {
			return nil, p.errorf("unexpected EOF in block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // consume }
	return b, nil
}

func (p *parser) stmt() (ast.Stmt, error) {
	switch p.cur().Kind {
	case lexer.LBrace:
		return p.block()
	case lexer.KwIf:
		return p.ifStmt()
	case lexer.KwWhile:
		return p.whileStmt()
	case lexer.KwFor:
		return p.forStmt()
	case lexer.KwReturn:
		t := p.next()
		if p.accept(lexer.Semi) {
			return &ast.Return{P: t.Pos}, nil
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Semi); err != nil {
			return nil, err
		}
		return &ast.Return{Value: v, P: t.Pos}, nil
	case lexer.KwBreak:
		t := p.next()
		if _, err := p.expect(lexer.Semi); err != nil {
			return nil, err
		}
		return &ast.Break{P: t.Pos}, nil
	case lexer.KwContinue:
		t := p.next()
		if _, err := p.expect(lexer.Semi); err != nil {
			return nil, err
		}
		return &ast.Continue{P: t.Pos}, nil
	case lexer.KwTaskExit:
		return p.taskExit()
	case lexer.KwTag:
		// tag t = new tag(tagtype);
		t := p.next()
		id, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Assign); err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.KwNew); err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.KwTag); err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.LParen); err != nil {
			return nil, err
		}
		tt, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Semi); err != nil {
			return nil, err
		}
		return &ast.NewTag{Name: id.Text, TagType: tt.Text, P: t.Pos}, nil
	}
	return p.simpleStmt(true)
}

// simpleStmt parses a declaration, assignment, compound assignment,
// ++/--, or expression statement. If wantSemi, a trailing ";" is consumed.
func (p *parser) simpleStmt(wantSemi bool) (ast.Stmt, error) {
	semi := func(s ast.Stmt) (ast.Stmt, error) {
		if wantSemi {
			if _, err := p.expect(lexer.Semi); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	// Local variable declaration? Lookahead: type IDENT ("=" | ";").
	if p.isDeclStart() {
		ty, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		id, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		d := &ast.VarDecl{Type: ty, Name: id.Text, P: id.Pos}
		if p.accept(lexer.Assign) {
			init, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		return semi(d)
	}
	lhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case lexer.Assign:
		t := p.next()
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		return semi(&ast.Assign{Target: lhs, Value: rhs, P: t.Pos})
	case lexer.PlusPlus:
		t := p.next()
		return semi(&ast.OpAssign{Target: lhs, Op: "+", Value: &ast.IntLit{Value: 1, P: t.Pos}, P: t.Pos})
	case lexer.MinusMinus:
		t := p.next()
		return semi(&ast.OpAssign{Target: lhs, Op: "-", Value: &ast.IntLit{Value: 1, P: t.Pos}, P: t.Pos})
	case lexer.Plus, lexer.Minus, lexer.Star, lexer.Slash, lexer.Percent:
		// Compound assignment: "x += e" arrives as Plus followed by Assign.
		opTok := p.next()
		if _, err := p.expect(lexer.Assign); err != nil {
			return nil, err
		}
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		return semi(&ast.OpAssign{Target: lhs, Op: opTok.Text, Value: rhs, P: opTok.Pos})
	}
	return semi(&ast.ExprStmt{X: lhs, P: lhs.Pos()})
}

// isDeclStart reports whether the upcoming tokens begin a local variable
// declaration (rather than an expression statement).
func (p *parser) isDeclStart() bool {
	switch p.cur().Kind {
	case lexer.KwInt, lexer.KwDouble, lexer.KwBoolean, lexer.KwString:
		return true
	case lexer.Ident:
		// "Foo x" or "Foo[] x" is a declaration; "foo.bar()" or "x = 1" is not.
		if p.peek().Kind == lexer.Ident {
			return true
		}
		if p.peek().Kind == lexer.LBracket {
			// Distinguish "Foo[] x" (decl) from "a[i] = ..." (index expr).
			return p.pos+2 < len(p.toks) && p.toks[p.pos+2].Kind == lexer.RBracket
		}
	}
	return false
}

func (p *parser) ifStmt() (ast.Stmt, error) {
	t := p.next()
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	thenB, err := p.blockOrStmt()
	if err != nil {
		return nil, err
	}
	s := &ast.If{Cond: cond, Then: thenB, P: t.Pos}
	if p.accept(lexer.KwElse) {
		elseB, err := p.blockOrStmt()
		if err != nil {
			return nil, err
		}
		s.Else = elseB
	}
	return s, nil
}

// blockOrStmt accepts either a braced block or a single statement, wrapping
// the latter in a Block.
func (p *parser) blockOrStmt() (*ast.Block, error) {
	if p.at(lexer.LBrace) {
		return p.block()
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return &ast.Block{Stmts: []ast.Stmt{s}, P: s.Pos()}, nil
}

func (p *parser) whileStmt() (ast.Stmt, error) {
	t := p.next()
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	body, err := p.blockOrStmt()
	if err != nil {
		return nil, err
	}
	return &ast.While{Cond: cond, Body: body, P: t.Pos}, nil
}

func (p *parser) forStmt() (ast.Stmt, error) {
	t := p.next()
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	s := &ast.For{P: t.Pos}
	if !p.at(lexer.Semi) {
		init, err := p.simpleStmt(false)
		if err != nil {
			return nil, err
		}
		s.Init = init
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	if !p.at(lexer.Semi) {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	if !p.at(lexer.RParen) {
		post, err := p.simpleStmt(false)
		if err != nil {
			return nil, err
		}
		s.Post = post
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	body, err := p.blockOrStmt()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// taskExit := "taskexit" "(" [paramactions (";" paramactions)*] ")" ";"
// paramactions := IDENT ":" action ("," action)*
func (p *parser) taskExit() (ast.Stmt, error) {
	t := p.next()
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	s := &ast.TaskExit{P: t.Pos}
	for !p.at(lexer.RParen) {
		if len(s.Actions) > 0 {
			if _, err := p.expect(lexer.Semi); err != nil {
				return nil, err
			}
		}
		id, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Colon); err != nil {
			return nil, err
		}
		pa := &ast.ParamActions{Param: id.Text, P: id.Pos}
		for {
			a, err := p.action()
			if err != nil {
				return nil, err
			}
			pa.Actions = append(pa.Actions, a)
			if !p.accept(lexer.Comma) {
				break
			}
		}
		s.Actions = append(s.Actions, pa)
	}
	p.next() // consume )
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	return s, nil
}

// action := flagname ":=" (true|false) | "add" tagname | "clear" tagname
func (p *parser) action() (ast.Action, error) {
	switch p.cur().Kind {
	case lexer.KwAdd:
		t := p.next()
		id, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		return &ast.TagAction{Add: true, Tag: id.Text, P: t.Pos}, nil
	case lexer.KwClear:
		t := p.next()
		id, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		return &ast.TagAction{Add: false, Tag: id.Text, P: t.Pos}, nil
	case lexer.Ident:
		id := p.next()
		if _, err := p.expect(lexer.Walrus); err != nil {
			return nil, err
		}
		var val bool
		switch p.cur().Kind {
		case lexer.KwTrue:
			val = true
		case lexer.KwFalse:
			val = false
		default:
			return nil, p.errorf("flag action requires boolean literal, found %s", p.cur())
		}
		p.next()
		return &ast.FlagAction{Flag: id.Text, Value: val, P: id.Pos}, nil
	}
	return nil, p.errorf("expected flag or tag action, found %s", p.cur())
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) expr() (ast.Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (ast.Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.OrOr) {
		t := p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: "||", L: l, R: r, P: t.Pos}
	}
	return l, nil
}

func (p *parser) andExpr() (ast.Expr, error) {
	l, err := p.bitOrExpr()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.AndAnd) {
		t := p.next()
		r, err := p.bitOrExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: "&&", L: l, R: r, P: t.Pos}
	}
	return l, nil
}

func (p *parser) bitOrExpr() (ast.Expr, error) {
	l, err := p.bitXorExpr()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.Pipe) {
		t := p.next()
		r, err := p.bitXorExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: "|", L: l, R: r, P: t.Pos}
	}
	return l, nil
}

func (p *parser) bitXorExpr() (ast.Expr, error) {
	l, err := p.bitAndExpr()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.Caret) {
		t := p.next()
		r, err := p.bitAndExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: "^", L: l, R: r, P: t.Pos}
	}
	return l, nil
}

func (p *parser) bitAndExpr() (ast.Expr, error) {
	l, err := p.eqExpr()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.Amp) {
		t := p.next()
		r, err := p.eqExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: "&", L: l, R: r, P: t.Pos}
	}
	return l, nil
}

func (p *parser) eqExpr() (ast.Expr, error) {
	l, err := p.relExpr()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.EqEq) || p.at(lexer.NotEq) {
		t := p.next()
		r, err := p.relExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: t.Text, L: l, R: r, P: t.Pos}
	}
	return l, nil
}

func (p *parser) relExpr() (ast.Expr, error) {
	l, err := p.shiftExpr()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.Lt) || p.at(lexer.Gt) || p.at(lexer.Le) || p.at(lexer.Ge) {
		t := p.next()
		r, err := p.shiftExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: t.Text, L: l, R: r, P: t.Pos}
	}
	return l, nil
}

func (p *parser) shiftExpr() (ast.Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.LShift) || p.at(lexer.RShift) {
		t := p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: t.Text, L: l, R: r, P: t.Pos}
	}
	return l, nil
}

func (p *parser) addExpr() (ast.Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for (p.at(lexer.Plus) || p.at(lexer.Minus)) && p.peek().Kind != lexer.Assign {
		t := p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: t.Text, L: l, R: r, P: t.Pos}
	}
	return l, nil
}

func (p *parser) mulExpr() (ast.Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for (p.at(lexer.Star) || p.at(lexer.Slash) || p.at(lexer.Percent)) && p.peek().Kind != lexer.Assign {
		t := p.next()
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: t.Text, L: l, R: r, P: t.Pos}
	}
	return l, nil
}

func (p *parser) unaryExpr() (ast.Expr, error) {
	switch p.cur().Kind {
	case lexer.Minus:
		t := p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: "-", X: x, P: t.Pos}, nil
	case lexer.Not:
		t := p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: "!", X: x, P: t.Pos}, nil
	case lexer.LParen:
		// Cast: "(int)" or "(double)" followed by a unary expression.
		if p.peek().Kind == lexer.KwInt || p.peek().Kind == lexer.KwDouble {
			if p.pos+2 < len(p.toks) && p.toks[p.pos+2].Kind == lexer.RParen {
				t := p.next() // (
				tyTok := p.next()
				p.next() // )
				x, err := p.unaryExpr()
				if err != nil {
					return nil, err
				}
				kind := ast.TInt
				if tyTok.Kind == lexer.KwDouble {
					kind = ast.TDouble
				}
				return &ast.Cast{To: &ast.Type{Kind: kind, P: tyTok.Pos}, X: x, P: t.Pos}, nil
			}
		}
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (ast.Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case lexer.Dot:
			p.next()
			id, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			if p.at(lexer.LParen) {
				args, err := p.argList()
				if err != nil {
					return nil, err
				}
				x = &ast.Call{Recv: x, Name: id.Text, Args: args, P: id.Pos}
			} else {
				x = &ast.FieldAccess{X: x, Name: id.Text, P: id.Pos}
			}
		case lexer.LBracket:
			t := p.next()
			i, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.RBracket); err != nil {
				return nil, err
			}
			x = &ast.Index{X: x, I: i, P: t.Pos}
		default:
			return x, nil
		}
	}
}

func (p *parser) argList() ([]ast.Expr, error) {
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	var args []ast.Expr
	for !p.at(lexer.RParen) {
		if len(args) > 0 {
			if _, err := p.expect(lexer.Comma); err != nil {
				return nil, err
			}
		}
		if p.at(lexer.KwTag) {
			// Tag instance argument: "tag t".
			t := p.next()
			id, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			args = append(args, &ast.TagArg{Name: id.Text, P: t.Pos})
			continue
		}
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	p.next() // consume )
	return args, nil
}

func (p *parser) primaryExpr() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case lexer.IntLit:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q: %v", t.Text, err)
		}
		return &ast.IntLit{Value: v, P: t.Pos}, nil
	case lexer.FloatLit:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad float literal %q: %v", t.Text, err)
		}
		return &ast.FloatLit{Value: v, P: t.Pos}, nil
	case lexer.CharLit:
		p.next()
		return &ast.IntLit{Value: int64(t.Text[0]), P: t.Pos}, nil
	case lexer.StringLit:
		p.next()
		return &ast.StringLit{Value: t.Text, P: t.Pos}, nil
	case lexer.KwTrue:
		p.next()
		return &ast.BoolLit{Value: true, P: t.Pos}, nil
	case lexer.KwFalse:
		p.next()
		return &ast.BoolLit{Value: false, P: t.Pos}, nil
	case lexer.KwNull:
		p.next()
		return &ast.NullLit{P: t.Pos}, nil
	case lexer.KwThis:
		p.next()
		return &ast.This{P: t.Pos}, nil
	case lexer.LParen:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
		return x, nil
	case lexer.KwNew:
		return p.newExpr()
	case lexer.Ident:
		p.next()
		if p.at(lexer.LParen) {
			// Unqualified call resolves to a method on this.
			args, err := p.argList()
			if err != nil {
				return nil, err
			}
			return &ast.Call{Recv: nil, Name: t.Text, Args: args, P: t.Pos}, nil
		}
		return &ast.Ident{Name: t.Text, P: t.Pos}, nil
	}
	return nil, p.errorf("expected expression, found %s", t)
}

// newExpr parses an allocation:
//
//	newExpr := "new" basetype "[" expr "]"
//	         | "new" IDENT "(" args ")" ["{" action ("," action)* "}"]
func (p *parser) newExpr() (ast.Expr, error) {
	t := p.next() // new
	switch p.cur().Kind {
	case lexer.KwInt, lexer.KwDouble, lexer.KwBoolean, lexer.KwString:
		base, err := p.typeBaseOnly()
		if err != nil {
			return nil, err
		}
		return p.newArrayRest(t, base)
	case lexer.Ident:
		id := p.next()
		if p.at(lexer.LBracket) {
			return p.newArrayRest(t, &ast.Type{Kind: ast.TClass, Name: id.Text, P: id.Pos})
		}
		args, err := p.argList()
		if err != nil {
			return nil, err
		}
		n := &ast.New{Class: id.Text, Args: args, P: t.Pos}
		if p.at(lexer.LBrace) {
			p.next()
			for !p.at(lexer.RBrace) {
				if len(n.Actions) > 0 {
					if _, err := p.expect(lexer.Comma); err != nil {
						return nil, err
					}
				}
				a, err := p.action()
				if err != nil {
					return nil, err
				}
				n.Actions = append(n.Actions, a)
			}
			p.next() // consume }
		}
		return n, nil
	}
	return nil, p.errorf("expected type after new, found %s", p.cur())
}

// typeBaseOnly parses just a primitive base type token.
func (p *parser) typeBaseOnly() (*ast.Type, error) {
	t := p.next()
	switch t.Kind {
	case lexer.KwInt:
		return &ast.Type{Kind: ast.TInt, P: t.Pos}, nil
	case lexer.KwDouble:
		return &ast.Type{Kind: ast.TDouble, P: t.Pos}, nil
	case lexer.KwBoolean:
		return &ast.Type{Kind: ast.TBoolean, P: t.Pos}, nil
	case lexer.KwString:
		return &ast.Type{Kind: ast.TString, P: t.Pos}, nil
	}
	return nil, p.errorf("expected primitive type, found %s", t)
}

// newArrayRest parses "[len]" plus any further "[]" pairs, which build
// nested array element types: new int[n][] is rejected, but new int[n]
// and declarations like double[][] use the [] suffix on types instead.
func (p *parser) newArrayRest(newTok lexer.Token, base *ast.Type) (ast.Expr, error) {
	if _, err := p.expect(lexer.LBracket); err != nil {
		return nil, err
	}
	length, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.RBracket); err != nil {
		return nil, err
	}
	elem := base
	// Trailing "[]" pairs make the element type an array: new double[n][]
	// allocates an n-element array of double[] (each element null).
	for p.at(lexer.LBracket) && p.peek().Kind == lexer.RBracket {
		p.next()
		p.next()
		elem = &ast.Type{Kind: ast.TArray, Elem: elem, P: base.P}
	}
	return &ast.NewArray{Elem: elem, Len: length, P: newTok.Pos}, nil
}
