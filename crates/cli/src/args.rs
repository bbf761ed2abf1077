//! Minimal `--flag value` argument parsing with typed getters.

use std::collections::HashMap;

/// Parsed `--key value` flags (repeated flags accumulate).
pub struct Flags {
    values: HashMap<String, Vec<String>>,
}

impl Flags {
    /// Parses `argv` of the form `--key value --key2 value2 ...`.
    pub fn parse(argv: &[String]) -> Result<Flags, String> {
        let mut values: HashMap<String, Vec<String>> = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let flag = &argv[i];
            let Some(key) = flag.strip_prefix("--") else {
                return Err(format!("expected a --flag, found {flag:?}"));
            };
            let Some(value) = argv.get(i + 1) else {
                return Err(format!("flag --{key} is missing its value"));
            };
            values
                .entry(key.to_string())
                .or_default()
                .push(value.clone());
            i += 2;
        }
        Ok(Flags { values })
    }

    /// Refuses any flag not among the whitespace-separated `known`
    /// names, naming the first one found.
    pub fn only(&self, known: &str) -> Result<(), String> {
        let mut unknown: Vec<&String> = self
            .values
            .keys()
            .filter(|key| !known.split_whitespace().any(|k| k == key.as_str()))
            .collect();
        unknown.sort();
        match unknown.first() {
            None => Ok(()),
            Some(key) => Err(format!("unknown flag --{key}")),
        }
    }

    /// The last value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// All values of a repeated flag.
    pub fn get_all(&self, key: &str) -> &[String] {
        self.values.get(key).map_or(&[], Vec::as_slice)
    }

    /// A required string flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional parsed flag with a default.
    pub fn get_parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("flag --{key}: cannot parse {raw:?}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_pairs() {
        let f = Flags::parse(&argv(&["--a", "1", "--b", "two"])).unwrap();
        assert_eq!(f.get("a"), Some("1"));
        assert_eq!(f.get("b"), Some("two"));
        assert_eq!(f.get("c"), None);
    }

    #[test]
    fn repeated_flags_accumulate() {
        let f = Flags::parse(&argv(&["--pair", "1:2", "--pair", "3:4"])).unwrap();
        assert_eq!(f.get_all("pair"), &["1:2".to_string(), "3:4".to_string()]);
        assert_eq!(f.get("pair"), Some("3:4"), "get returns the last value");
    }

    #[test]
    fn missing_value_is_error() {
        assert!(Flags::parse(&argv(&["--a"])).is_err());
    }

    #[test]
    fn non_flag_is_error() {
        assert!(Flags::parse(&argv(&["a", "1"])).is_err());
    }

    #[test]
    fn only_refuses_unknown_flags_by_name() {
        let f = Flags::parse(&argv(&["--a", "1", "--zz", "2", "--b", "3"])).unwrap();
        assert_eq!(f.only("a b zz"), Ok(()));
        assert_eq!(f.only("a b"), Err("unknown flag --zz".into()));
    }

    #[test]
    fn typed_getters() {
        let f = Flags::parse(&argv(&["--n", "42"])).unwrap();
        assert_eq!(f.get_parsed_or("n", 0usize).unwrap(), 42);
        assert_eq!(f.get_parsed_or("missing", 7usize).unwrap(), 7);
        assert!(f.require("n").is_ok());
        assert!(f.require("missing").is_err());
    }

    #[test]
    fn bad_parse_is_descriptive() {
        let f = Flags::parse(&argv(&["--n", "potato"])).unwrap();
        let err = f.get_parsed_or("n", 0usize).unwrap_err();
        assert!(err.contains("potato") && err.contains("--n"), "{err}");
    }
}
