//! No-op derive macros standing in for `serde_derive`.
//!
//! The build environment has no crates.io access, so the workspace vendors a
//! minimal shim: `#[derive(Serialize, Deserialize)]` must parse but nothing
//! in the repository serializes through serde (reports are written as
//! hand-formatted JSON/markdown).  The derives therefore expand to nothing;
//! the marker traits live in the sibling `serde` shim crate.  Like the real
//! derives they register the `#[serde(...)]` helper attribute, so field
//! annotations such as `#[serde(skip)]` parse (and are ignored).

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
