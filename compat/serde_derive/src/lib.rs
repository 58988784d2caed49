//! Derive macros for the offline `serde` stand-in.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for
//! non-generic structs and enums by walking the raw
//! [`proc_macro::TokenStream`] — no `syn`/`quote`, since the build
//! environment cannot fetch crates.io. The generated code targets the
//! sibling `serde` crate's traits: `Serialize` builds a `Value` tree, and
//! `Deserialize` decodes either a tree or, streaming, a `serde::Tokens`
//! source, with one encoding for both.
//!
//! One container attribute is understood: `#[serde(validate = "path")]`
//! names a `fn(&Self) -> Result<(), serde::Error>` that both decoding
//! entry points call before returning, so a type whose fields must agree
//! (a matrix and its dimensions, say) keeps one field list and one check.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed field list flavour.
enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

/// The parsed derive input.
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

/// Skips outer attributes (`#[...]`) starting at `i`; returns new index.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < tokens.len()
        && is_punct(&tokens[i], '#')
        && matches!(&tokens[i + 1], TokenTree::Group(g) if g.delimiter() == Delimiter::Bracket)
    {
        i += 2;
    }
    i
}

/// Skips a visibility qualifier (`pub`, `pub(crate)`, ...); returns new index.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "pub") {
        i += 1;
        if i < tokens.len()
            && matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    i
}

/// Skips a type (or discriminant expression) until a top-level comma,
/// tracking `<`/`>` nesting depth; returns the index of the comma or end.
fn skip_until_comma(tokens: &[TokenTree], mut i: usize) -> usize {
    let mut angle = 0i32;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parses a named-field group body into field names.
fn parse_named(group: &[TokenTree]) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < group.len() {
        i = skip_attrs(group, i);
        if i >= group.len() {
            break;
        }
        i = skip_vis(group, i);
        let TokenTree::Ident(name) = &group[i] else {
            panic!("serde_derive: expected field name, got {:?}", group[i]);
        };
        fields.push(name.to_string());
        i += 1;
        assert!(is_punct(&group[i], ':'), "serde_derive: expected `:`");
        i = skip_until_comma(group, i + 1);
        i += 1; // past the comma (or end)
    }
    fields
}

/// Counts fields of a tuple group body.
fn parse_tuple(group: &[TokenTree]) -> usize {
    let mut count = 0;
    let mut i = 0;
    while i < group.len() {
        i = skip_attrs(group, i);
        if i >= group.len() {
            break;
        }
        i = skip_vis(group, i);
        if i >= group.len() {
            break;
        }
        count += 1;
        i = skip_until_comma(group, i);
        i += 1;
    }
    count
}

fn group_tokens(t: &TokenTree) -> Vec<TokenTree> {
    match t {
        TokenTree::Group(g) => g.stream().into_iter().collect(),
        other => panic!("serde_derive: expected a group, got {other:?}"),
    }
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs(&tokens, 0);
    i = skip_vis(&tokens, i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected struct/enum, got {other:?}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected a name, got {other:?}"),
    };
    i += 1;
    if i < tokens.len() && is_punct(&tokens[i], '<') {
        panic!("serde_derive: generic types are not supported by the offline serde stand-in");
    }
    match kind.as_str() {
        "struct" => {
            let fields = if i >= tokens.len() || is_punct(&tokens[i], ';') {
                Fields::Unit
            } else {
                match &tokens[i] {
                    TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                        Fields::Named(parse_named(&group_tokens(&tokens[i])))
                    }
                    TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                        Fields::Tuple(parse_tuple(&group_tokens(&tokens[i])))
                    }
                    other => panic!("serde_derive: unexpected struct body {other:?}"),
                }
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = group_tokens(&tokens[i]);
            let mut variants = Vec::new();
            let mut j = 0;
            while j < body.len() {
                j = skip_attrs(&body, j);
                if j >= body.len() {
                    break;
                }
                let TokenTree::Ident(vname) = &body[j] else {
                    panic!("serde_derive: expected variant name, got {:?}", body[j]);
                };
                let vname = vname.to_string();
                j += 1;
                let fields = if j < body.len() {
                    match &body[j] {
                        TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                            let f = Fields::Named(parse_named(&group_tokens(&body[j])));
                            j += 1;
                            f
                        }
                        TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                            let f = Fields::Tuple(parse_tuple(&group_tokens(&body[j])));
                            j += 1;
                            f
                        }
                        _ => Fields::Unit,
                    }
                } else {
                    Fields::Unit
                };
                // Skip an optional discriminant and the separating comma.
                j = skip_until_comma(&body, j);
                j += 1;
                variants.push((vname, fields));
            }
            Item::Enum { name, variants }
        }
        other => panic!("serde_derive: cannot derive for `{other}`"),
    }
}

// ---- Serialize ---------------------------------------------------------

/// Generates `impl Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fs) => {
                    let entries: Vec<String> = fs
                        .iter()
                        .map(|f| {
                            format!(
                                "(::std::string::String::from(\"{f}\"), \
                                 ::serde::Serialize::to_value(&self.{f}))"
                            )
                        })
                        .collect();
                    format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "))
                }
                Fields::Tuple(n) => {
                    let entries: Vec<String> = (0..*n)
                        .map(|k| format!("::serde::Serialize::to_value(&self.{k})"))
                        .collect();
                    format!("::serde::Value::Seq(::std::vec![{}])", entries.join(", "))
                }
                Fields::Unit => "::serde::Value::Null".to_string(),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(vname, fields)| match fields {
                    Fields::Unit => format!(
                        "{name}::{vname} => \
                         ::serde::Value::Str(::std::string::String::from(\"{vname}\")),"
                    ),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                        let vals: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        format!(
                            "{name}::{vname}({binds}) => \
                             ::serde::Value::Map(::std::vec![(\
                                ::std::string::String::from(\"{vname}\"), \
                                ::serde::Value::Seq(::std::vec![{vals}]))]),",
                            binds = binds.join(", "),
                            vals = vals.join(", "),
                        )
                    }
                    Fields::Named(fs) => {
                        let binds = fs.join(", ");
                        let entries: Vec<String> = fs
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from(\"{f}\"), \
                                     ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{vname} {{ {binds} }} => \
                             ::serde::Value::Map(::std::vec![(\
                                ::std::string::String::from(\"{vname}\"), \
                                ::serde::Value::Map(::std::vec![{entries}]))]),",
                            entries = entries.join(", "),
                        )
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    };
    code.parse()
        .expect("serde_derive: generated Serialize impl must parse")
}

// ---- Deserialize -------------------------------------------------------

/// The path in a `#[serde(validate = "path")]` container attribute: a
/// `fn(&Self) -> Result<(), serde::Error>` both generated entry points
/// call on the decoded value before returning it.
fn validate_hook(input: &TokenStream) -> Option<String> {
    let tokens: Vec<TokenTree> = input.clone().into_iter().collect();
    let mut i = 0;
    while i + 1 < tokens.len() && is_punct(&tokens[i], '#') {
        let attr = group_tokens(&tokens[i + 1]);
        if let [TokenTree::Ident(name), TokenTree::Group(args)] = &attr[..] {
            if name.to_string() == "serde" {
                let args: Vec<TokenTree> = args.stream().into_iter().collect();
                match &args[..] {
                    [TokenTree::Ident(key), eq, TokenTree::Literal(path)]
                        if key.to_string() == "validate" && is_punct(eq, '=') =>
                    {
                        return Some(path.to_string().trim_matches('"').to_string());
                    }
                    _ => panic!(
                        "serde_derive: the only container attribute is `validate = \"path\"`"
                    ),
                }
            }
        }
        i += 2;
    }
    None
}

/// An expression building `ctor` from the tree `src` (a `&Value`).
fn tree_ctor(ctor: &str, fields: &Fields, src: &str) -> String {
    match fields {
        Fields::Named(fs) => {
            let inits: Vec<String> = fs
                .iter()
                .map(|f| format!("{f}: ::serde::from_field({src}, \"{f}\")?"))
                .collect();
            format!("{ctor} {{ {} }}", inits.join(", "))
        }
        Fields::Tuple(n) => {
            let inits: Vec<String> = (0..*n)
                .map(|k| format!("::serde::from_index({src}, {k})?"))
                .collect();
            format!("{ctor}({})", inits.join(", "))
        }
        Fields::Unit => ctor.to_string(),
    }
}

/// An expression building `ctor` from the next value of the stream
/// `__r`, accepting exactly what [`tree_ctor`] accepts: a named struct
/// streams from a map, a tuple from a sequence, and any other shape is
/// read as a tree and handed to the tree path.
fn stream_ctor(ctor: &str, fields: &Fields) -> String {
    let fallback = format!(
        "{{ let __p = ::serde::Tokens::value(__r)?; {} }}",
        tree_ctor(ctor, fields, "&__p")
    );
    match fields {
        Fields::Named(fs) => {
            let slots: String = (0..fs.len())
                .map(|k| format!("let mut __f{k} = ::std::option::Option::None;\n"))
                .collect();
            let keys: String = fs
                .iter()
                .enumerate()
                .map(|(k, f)| format!("\"{f}\" => {k}usize, "))
                .collect();
            // The first of duplicate keys wins, as `Value::get` finds it.
            let arms: String = fs
                .iter()
                .enumerate()
                .map(|(k, f)| {
                    format!(
                        "{k}usize if __f{k}.is_none() => \
                         __f{k} = ::std::option::Option::Some(::serde::read_field(__r, \"{f}\")?),\n"
                    )
                })
                .collect();
            let inits: Vec<String> = fs
                .iter()
                .enumerate()
                .map(|(k, f)| format!("{f}: ::serde::take_field(__f{k}, \"{f}\")?"))
                .collect();
            format!(
                "if ::serde::Tokens::peek(__r)? == ::serde::Kind::Map {{\n\
                     ::serde::Tokens::map_begin(__r)?;\n\
                     {slots}\
                     while let ::std::option::Option::Some(__i) = ::serde::Tokens::map_key(__r)?\
                         .map(|__k| match &*__k {{ {keys}_ => usize::MAX }}) {{\n\
                         match __i {{\n{arms}_ => ::serde::Tokens::skip(__r)?,\n}}\n\
                     }}\n\
                     {ctor} {{ {} }}\n\
                 }} else {fallback}",
                inits.join(", ")
            )
        }
        Fields::Tuple(n) => {
            let inits: Vec<String> = (0..*n)
                .map(|k| format!("::serde::read_element(__r, {k})?"))
                .collect();
            format!(
                "if ::serde::Tokens::peek(__r)? == ::serde::Kind::Seq {{\n\
                     ::serde::Tokens::seq_begin(__r)?;\n\
                     let __out = {ctor}({});\n\
                     ::serde::skip_rest(__r)?;\n\
                     __out\n\
                 }} else {fallback}",
                inits.join(", ")
            )
        }
        // A unit struct or variant ignores its value, whatever it is.
        Fields::Unit => format!("{{ ::serde::Tokens::skip(__r)?; {ctor} }}"),
    }
}

/// Generates `impl Deserialize`: `from_value` over the
/// tree and the streaming `deserialize` over the same encoding.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let validate = validate_hook(&input).map_or(String::new(), |path| format!("{path}(&__out)?;"));
    let item = parse_item(input);
    let (name, tree, stream) = match &item {
        Item::Struct { name, fields } => (
            name,
            tree_ctor(name, fields, "v"),
            stream_ctor(name, fields),
        ),
        Item::Enum { name, variants } => {
            let tree_arms: String = variants
                .iter()
                .map(|(vname, fields)| {
                    format!(
                        "\"{vname}\" => {},\n",
                        tree_ctor(&format!("{name}::{vname}"), fields, "payload")
                    )
                })
                .collect();
            let tree = format!(
                "{{\n\
                     let (variant_name, payload) = ::serde::variant(v)?;\n\
                     let _ = payload;\n\
                     match variant_name {{\n{tree_arms}\
                         other => return ::std::result::Result::Err(::serde::Error(\
                             ::std::format!(\"unknown variant `{{other}}` for {name}\"))),\n\
                     }}\n\
                 }}"
            );
            let keys: String = variants
                .iter()
                .enumerate()
                .map(|(k, (vname, _))| format!("\"{vname}\" => {k}usize, "))
                .collect();
            let stream_arms: String = variants
                .iter()
                .enumerate()
                .map(|(k, (vname, fields))| {
                    format!(
                        "{k}usize => {},\n",
                        stream_ctor(&format!("{name}::{vname}"), fields)
                    )
                })
                .collect();
            // A unit variant may come as a bare string, and that shape (or
            // any other than a map) is decoded by the tree path.
            let stream = format!(
                "{{\n\
                     if ::serde::Tokens::peek(__r)? != ::serde::Kind::Map {{\n\
                         return <Self as ::serde::Deserialize>::from_value(\
                             &::serde::Tokens::value(__r)?);\n\
                     }}\n\
                     ::serde::Tokens::map_begin(__r)?;\n\
                     let __i = match ::serde::Tokens::map_key(__r)? {{\n\
                         ::std::option::Option::Some(__k) => match &*__k {{\n\
                             {keys}\n\
                             other => return ::std::result::Result::Err(::serde::Error(\
                                 ::std::format!(\"unknown variant `{{other}}` for {name}\"))),\n\
                         }},\n\
                         ::std::option::Option::None => return ::std::result::Result::Err(\
                             ::serde::Error(::std::string::String::from(\
                                 \"expected enum variant, got an empty map\"))),\n\
                     }};\n\
                     let __out = match __i {{\n{stream_arms}\
                         _ => ::std::unreachable!(\"variant index\"),\n\
                     }};\n\
                     if ::serde::Tokens::map_key(__r)?.is_some() {{\n\
                         return ::std::result::Result::Err(::serde::Error(\
                             ::std::string::String::from(\
                                 \"expected enum variant, got a map of several keys\")));\n\
                     }}\n\
                     __out\n\
                 }}"
            );
            (name, tree, stream)
        }
    };
    let code = format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) \
                 -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 let __out = {tree};\n\
                 {validate}\n\
                 ::std::result::Result::Ok(__out)\n\
             }}\n\
             fn deserialize<__R: ::serde::Tokens + ?::std::marker::Sized>(__r: &mut __R) \
                 -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 let __out = {stream};\n\
                 {validate}\n\
                 ::std::result::Result::Ok(__out)\n\
             }}\n\
         }}"
    );
    code.parse()
        .expect("serde_derive: generated Deserialize impl must parse")
}
