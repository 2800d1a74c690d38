//! Malformed input never panics: arbitrary text through the CSV reader
//! and the op-log parser comes back as `Ok` or as an `Err` whose line
//! lies inside the input.

use anmat_table::{csv, parse_ops, TableError};
use proptest::prelude::*;

/// Short strings over the characters that steer both parsers: quotes,
/// `\r`/`\n`, the delimiter, the op codes, digits, and multibyte text.
fn any_text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just('"'),
            Just(','),
            Just('\r'),
            Just('\n'),
            Just('+'),
            Just('-'),
            Just('~'),
            prop::char::ranges(vec!['0'..='9', 'a'..='c'].into()),
            prop::char::ranges(vec!['é'..='é', '中'..='中', '😀'..='😀'].into()),
        ],
        0..48,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// A `Csv` error must name a line of `text` (1-based).
fn line_in_range(text: &str, error: &TableError) -> bool {
    match error {
        TableError::Csv { line, .. } => (1..=text.matches('\n').count() + 1).contains(line),
        _ => true,
    }
}

proptest! {
    #[test]
    fn csv_reader_returns_instead_of_panicking(text in any_text()) {
        if let Err(e) = csv::read_str(&text) {
            prop_assert!(line_in_range(&text, &e), "{e} for {text:?}");
        }
    }

    #[test]
    fn op_log_parser_returns_instead_of_panicking(text in any_text()) {
        match parse_ops(&text) {
            Ok(log) => {
                prop_assert_eq!(log.ops.len(), log.lines.len());
                prop_assert!(log.lines.windows(2).all(|w| w[0] <= w[1]), "{:?}", log.lines);
                let last = text.matches('\n').count() + 1;
                prop_assert!(log.lines.iter().all(|l| (1..=last).contains(l)));
            }
            Err(e) => {
                prop_assert!(matches!(e, TableError::Csv { .. }), "{e:?}");
                prop_assert!(line_in_range(&text, &e), "{e} for {text:?}");
            }
        }
    }
}
