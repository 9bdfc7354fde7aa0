//! No-op stand-in for `serde`'s derive surface.
//!
//! Nothing in the workspace derives or calls it any more. The crates that
//! still list it as a dependency keep it only because `pimbench/Cargo.lock`
//! records that graph; the lines and this crate go together with the next
//! change to `pimbench/`.

use proc_macro::TokenStream;

/// Expands to nothing; the workspace never calls `serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Expands to nothing; the workspace never calls `deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
