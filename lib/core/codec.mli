(** The one byte encoding behind the stack's content digests.

    A [Codec.t] is a growable [Bytes] sink that is reset and reused, not
    reallocated: a caller writes a value's fields into it and hashes the
    slice written with {!fnv1a} or {!crc32}, allocating nothing once the
    buffer has grown to the largest value seen.  Three digests are taken
    this way:

    - the wire-frame digest, FNV-1a over {!Protocol.encode};
    - the checkpoint seal, CRC-32 over {!Subproblem.encode};
    - the verdict-cache key ([Service.Cache.digest]), both hashes over the
      formula's canonical text written with {!decimal} and {!char}.

    The binary writers are unambiguous: every variable-length value is
    length-prefixed and every constructor writes a {!tag} first, so equal
    encodings mean equal values.  The library has no decoder; the test
    suite keeps one as the oracle for that claim. *)

type t

val create : int -> t
(** A sink with an initial capacity (in bytes); it grows as needed. *)

val contents : t -> string
(** A copy of the bytes written. *)

val scratch : unit -> t
(** The calling domain's shared sink (kept in [Domain.DLS]), emptied.  Its
    contents are valid until the next [scratch ()] in the same domain, so
    a caller must finish hashing before calling anything that may take
    the scratch sink itself. *)

(** {1 Binary writers} *)

val tag : t -> int -> unit
(** One byte, [k land 0xFF]: a constructor's tag. *)

val int : t -> int -> unit
(** A zigzag varint: 1 byte for [-64 .. 63], at most 9 bytes. *)

val bool : t -> bool -> unit

val float : t -> float -> unit
(** The IEEE-754 bits, 8 bytes little-endian. *)

val string : t -> string -> unit
(** Length-prefixed bytes. *)

val ints : t -> int list -> unit
(** Length-prefixed list of {!int}s. *)

val int_arrays : t -> int array list -> unit
(** Length-prefixed list of length-prefixed {!int} arrays (a clause
    list). *)

(** {1 Text writers} *)

val char : t -> char -> unit

val raw_string : t -> string -> unit
(** The bytes of the string, with no length prefix. *)

val decimal : t -> int -> unit
(** ASCII decimal, as [string_of_int] prints it, without allocating. *)

(** {1 Digests of the bytes written} *)

val fnv1a : t -> int
(** {!Integrity.fnv1a} over the written slice. *)

val crc32 : t -> int
(** {!Integrity.crc32} over the written slice. *)
