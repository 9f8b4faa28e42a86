(** Content digests for integrity checking.

    Everything the distributed layer persists or puts on the wire can be
    corrupted: message payloads in flight, checkpoint snapshots and
    journal records at rest.  This module provides the two digests the
    stack seals records with, both dependency-free and deterministic:

    - {!fnv1a}, a 64-bit FNV-1a hash (truncated to OCaml's native int),
      used for in-flight message frames ({!Protocol.frame}) where speed
      matters and the adversary is random bit rot, not malice;
    - {!crc32}, the standard reflected CRC-32 (polynomial 0xEDB88320),
      used for at-rest records (journal entries, checkpoint snapshots)
      where we mirror what a storage layer would do.

    Both hash a [(bytes, off, len)] slice without allocating, so a caller
    can digest the part of a reused buffer it wrote ({!Codec}).

    A digest detects corruption; it does not authenticate.  Certification
    of {e answers} (which must not trust the sender at all) is the job of
    DRUP checking and model re-evaluation, not of this module. *)

val fnv1a : bytes -> int -> int -> int
(** [fnv1a b off len] is the 64-bit FNV-1a of [len] bytes of [b] from
    [off], truncated to [int].  Raises [Invalid_argument] on a slice
    outside [b]. *)

val crc32 : bytes -> int -> int -> int
(** [crc32 b off len] is the CRC-32 (IEEE, reflected) of the slice, in
    [0, 2^32).  Raises [Invalid_argument] on a slice outside [b]. *)

val fnv1a_string : string -> int
(** {!fnv1a} over a whole string. *)

val crc32_string : string -> int
(** {!crc32} over a whole string. *)

val corrupted : int -> int
(** [corrupted d] is a digest guaranteed to differ from [d] — how fault
    injection models a record whose bytes rotted while its seal (or the
    data under it) changed. *)
