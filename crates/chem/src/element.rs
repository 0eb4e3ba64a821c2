//! Element symbols and atomic numbers for the elements this reproduction
//! needs (the paper's molecules contain only C and H; N/O/He appear in tests
//! and examples).

/// Symbols indexed by atomic number (index 0 unused).
const SYMBOLS: [&str; 11] = ["?", "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne"];

/// The symbol for atomic number `z`, or `None` if out of the supported range.
pub fn symbol(z: u32) -> Option<&'static str> {
    SYMBOLS.get(z as usize).copied().filter(|s| *s != "?")
}

/// Atomic numbers used throughout the workspace.
pub const H: u32 = 1;
pub const HE: u32 = 2;
pub const C: u32 = 6;
pub const N: u32 = 7;
pub const O: u32 = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_match_atomic_numbers() {
        assert_eq!(symbol(H), Some("H"));
        assert_eq!(symbol(HE), Some("He"));
        assert_eq!(symbol(C), Some("C"));
        assert_eq!(symbol(N), Some("N"));
        assert_eq!(symbol(O), Some("O"));
    }

    #[test]
    fn unknown_symbols() {
        assert_eq!(symbol(0), None);
        assert_eq!(symbol(99), None);
    }
}
