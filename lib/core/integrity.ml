(* FNV-1a, 64-bit variant, computed in the native int.  The low 63 bits of
   a 64-bit product depend only on the low 63 bits of its operands, so
   this is bit-identical to the 64-bit hash truncated to an int, with no
   boxed [Int64] per byte. *)
let fnv_offset = Int64.to_int 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3

let check_slice name b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg ("Integrity." ^ name)

let fnv1a b off len =
  check_slice "fnv1a" b off len;
  let h = ref fnv_offset in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * fnv_prime
  done;
  !h

(* CRC-32 (IEEE 802.3, reflected).  Table built once at module load. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 b off len =
  check_slice "crc32" b off len;
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    crc :=
      Array.unsafe_get crc_table ((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let fnv1a_string s = fnv1a (Bytes.unsafe_of_string s) 0 (String.length s)

let crc32_string s = crc32 (Bytes.unsafe_of_string s) 0 (String.length s)

let corrupted d = d lxor 0x5A5A5A5A
