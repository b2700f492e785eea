// Package lexer tokenizes Bamboo source code.
//
// Bamboo is the data-centric, object-oriented language of Zhou and Demsky
// (PLDI 2010): a type-safe, Java-like imperative core extended with abstract
// object states (flags), tags, and tasks with data-oriented invocation
// semantics. The lexer covers the imperative subset used by the benchmarks
// plus every task-extension keyword from Figure 5 of the paper.
package lexer

import "fmt"

// Kind identifies a lexical token class.
type Kind int

// Token kinds. Keyword kinds follow the literal keyword they match.
const (
	EOF Kind = iota
	Ident
	IntLit
	FloatLit
	StringLit
	CharLit

	// Punctuation and operators.
	LParen     // (
	RParen     // )
	LBrace     // {
	RBrace     // }
	LBracket   // [
	RBracket   // ]
	Semi       // ;
	Comma      // ,
	Dot        // .
	Colon      // :
	Assign     // =
	Walrus     // := (flag action assignment)
	Plus       // +
	Minus      // -
	Star       // *
	Slash      // /
	Percent    // %
	Lt         // <
	Gt         // >
	Le         // <=
	Ge         // >=
	EqEq       // ==
	NotEq      // !=
	AndAnd     // &&
	OrOr       // ||
	Not        // !
	PlusPlus   // ++
	MinusMinus // --
	LShift     // <<
	RShift     // >>
	Amp        // &
	Pipe       // |
	Caret      // ^

	// Java-like keywords.
	KwClass
	KwNew
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwBreak
	KwContinue
	KwTrue
	KwFalse
	KwNull
	KwThis
	KwVoid
	KwInt
	KwDouble
	KwBoolean
	KwString

	// Bamboo task-extension keywords (Figure 5 of the paper).
	KwFlag
	KwTag
	KwTask
	KwTaskExit
	KwIn
	KwWith
	KwAnd
	KwOr
	KwAdd
	KwClear
)

var kindNames = map[Kind]string{
	EOF: "EOF", Ident: "identifier", IntLit: "int literal", FloatLit: "float literal",
	StringLit: "string literal", CharLit: "char literal",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}", LBracket: "[", RBracket: "]",
	Semi: ";", Comma: ",", Dot: ".", Colon: ":", Assign: "=", Walrus: ":=",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	Lt: "<", Gt: ">", Le: "<=", Ge: ">=", EqEq: "==", NotEq: "!=",
	AndAnd: "&&", OrOr: "||", Not: "!", PlusPlus: "++", MinusMinus: "--",
	LShift: "<<", RShift: ">>", Amp: "&", Pipe: "|", Caret: "^",
	KwClass: "class", KwNew: "new", KwIf: "if", KwElse: "else", KwWhile: "while",
	KwFor: "for", KwReturn: "return", KwBreak: "break", KwContinue: "continue",
	KwTrue: "true", KwFalse: "false", KwNull: "null", KwThis: "this",
	KwVoid: "void", KwInt: "int", KwDouble: "double", KwBoolean: "boolean", KwString: "String",
	KwFlag: "flag", KwTag: "tag", KwTask: "task", KwTaskExit: "taskexit",
	KwIn: "in", KwWith: "with", KwAnd: "and", KwOr: "or", KwAdd: "add", KwClear: "clear",
}

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"class": KwClass, "new": KwNew, "if": KwIf, "else": KwElse, "while": KwWhile,
	"for": KwFor, "return": KwReturn, "break": KwBreak, "continue": KwContinue,
	"true": KwTrue, "false": KwFalse, "null": KwNull, "this": KwThis,
	"void": KwVoid, "int": KwInt, "double": KwDouble, "boolean": KwBoolean, "String": KwString,
	"flag": KwFlag, "tag": KwTag, "task": KwTask, "taskexit": KwTaskExit,
	"in": KwIn, "with": KwWith, "and": KwAnd, "or": KwOr, "add": KwAdd, "clear": KwClear,
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// String formats the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token with its source text and position.
type Token struct {
	Kind Kind
	Text string // raw text; for StringLit the unquoted, unescaped value
	Pos  Pos
}

// String formats the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, IntLit, FloatLit:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	case StringLit:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return t.Kind.String()
	}
}
