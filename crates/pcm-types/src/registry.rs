//! Tag registries: enums whose variants are chosen by a string tag on the
//! command line or in JSON.
//!
//! [`registry!`](crate::registry!) declares such an enum from one table of
//! `Variant => "tag" | "alias" …` rows. From that table it generates the
//! enum, `ALL` (every variant, in table order), `tag()`, `Display` (the
//! tag) and a case-insensitive `FromStr` that accepts the tag and its
//! aliases. Because every surface comes from the same rows, a variant
//! cannot be missing from `ALL`.
//!
//! Write tags and aliases in lowercase, each once: `FromStr` lowercases
//! its input before matching, and the first row that spells a string wins.
//! Each registry's `display_fromstr_roundtrip` test checks that every
//! canonical tag parses back to its own variant.

use std::fmt;

/// Error from parsing a tag that names no variant of a registry enum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseTagError {
    /// What the registry selects (`"scheme"`, `"policy"`), for the message.
    pub kind: &'static str,
    /// The input that failed to parse.
    pub input: String,
    /// Every canonical tag, in `ALL` order.
    pub tags: &'static [&'static str],
}

impl fmt::Display for ParseTagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} '{}' (expected one of {})",
            self.kind,
            self.input,
            self.tags.join(", ")
        )
    }
}

impl std::error::Error for ParseTagError {}

/// Declare a tag registry enum (see the [module docs](mod@crate::registry)).
///
/// ```
/// pcm_types::registry! {
///     /// How loud.
///     #[derive(Clone, Copy, Debug, PartialEq, Eq)]
///     pub enum Volume: "volume" {
///         /// Barely audible.
///         Low => "low" | "quiet",
///         /// Full blast.
///         High => "high",
///     }
/// }
/// assert_eq!(Volume::ALL, [Volume::Low, Volume::High]);
/// assert_eq!("QUIET".parse::<Volume>(), Ok(Volume::Low));
/// assert_eq!(Volume::High.to_string(), "high");
/// assert_eq!(
///     "max".parse::<Volume>().unwrap_err().to_string(),
///     "unknown volume 'max' (expected one of low, high)"
/// );
/// ```
#[macro_export]
macro_rules! registry {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident : $kind:literal {
            $(
                $(#[$vmeta:meta])*
                $variant:ident => $tag:literal $(| $alias:literal)*
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in registry order.
            pub const ALL: [$name; [$($tag),+].len()] = [$($name::$variant),+];

            /// Stable lowercase tag (CLI / JSON).
            pub const fn tag(&self) -> &'static str {
                match self {
                    $($name::$variant => $tag,)+
                }
            }
        }

        impl ::std::fmt::Display for $name {
            /// Renders the stable tag; round-trips through `FromStr`.
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.tag())
            }
        }

        impl ::std::str::FromStr for $name {
            type Err = $crate::registry::ParseTagError;

            /// Parse a tag or alias, case-insensitively.
            fn from_str(s: &str) -> ::std::result::Result<Self, Self::Err> {
                match s.to_ascii_lowercase().as_str() {
                    $($tag $(| $alias)* => Ok($name::$variant),)+
                    _ => Err($crate::registry::ParseTagError {
                        kind: $kind,
                        input: s.into(),
                        tags: &[$($tag),+],
                    }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    crate::registry! {
        /// A registry exercising aliases, digits and a default.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
        enum Shape: "shape" {
            /// No aliases.
            Circle => "circle",
            /// One alias.
            #[default]
            Square => "square" | "box",
            /// A tag starting with a digit, two aliases.
            Cube => "3d" | "cube" | "hexahedron",
        }
    }

    #[test]
    fn every_tag_round_trips_in_any_case() {
        assert_eq!(Shape::ALL, [Shape::Circle, Shape::Square, Shape::Cube]);
        for s in Shape::ALL {
            let tag = s.to_string();
            assert_eq!(tag, s.tag());
            assert_eq!(tag.parse::<Shape>(), Ok(s));
            assert_eq!(tag.to_ascii_uppercase().parse::<Shape>(), Ok(s));
            assert_eq!(tag.to_ascii_lowercase().parse::<Shape>(), Ok(s));
        }
    }

    #[test]
    fn aliases_parse_case_insensitively() {
        assert_eq!("box".parse::<Shape>(), Ok(Shape::Square));
        assert_eq!("Cube".parse::<Shape>(), Ok(Shape::Cube));
        assert_eq!("HEXAHEDRON".parse::<Shape>(), Ok(Shape::Cube));
        assert_eq!(Shape::default(), Shape::Square);
    }

    #[test]
    fn unknown_tag_error_lists_every_tag() {
        let err = "Sphere".parse::<Shape>().unwrap_err();
        assert_eq!(err.input, "Sphere");
        assert_eq!(err.tags, ["circle", "square", "3d"]);
        assert_eq!(
            err.to_string(),
            "unknown shape 'Sphere' (expected one of circle, square, 3d)"
        );
    }
}
