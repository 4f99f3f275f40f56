//! Parsing of the table-level `delete-row:<row>` mutation token. The
//! mutations themselves are searched, caught and shrunk by
//! `mutation_catalog.rs`; here only the row-name lookup is checked: a
//! token naming no row of the shared transition table must not parse,
//! so `gwcheck --mutation` rejects a misspelt row instead of running
//! an unmutated sweep.

use ghostwriter_check::Mutation;

#[test]
fn unknown_row_names_do_not_parse() {
    assert!(Mutation::parse("delete-row:no_such_row").is_none());
    assert!(Mutation::parse("delete-row:").is_none());
}
