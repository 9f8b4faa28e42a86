type t = { mutable buf : bytes; mutable len : int }

let create n = { buf = Bytes.create (max n 16); len = 0 }

let contents t = Bytes.sub_string t.buf 0 t.len

let reserve t n =
  let need = t.len + n in
  if need > Bytes.length t.buf then begin
    let buf = Bytes.create (max need (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end

let char t c =
  reserve t 1;
  Bytes.unsafe_set t.buf t.len c;
  t.len <- t.len + 1

let tag t k = char t (Char.unsafe_chr (k land 0xFF))

(* Zigzag folds the sign into bit 0 so small negatives stay short; the
   varint then emits 7 bits per byte, high bit set on all but the last.
   A 63-bit int takes at most 9 bytes. *)
let int t n =
  reserve t 9;
  let z = ref ((n lsl 1) lxor (n asr 62)) in
  let b = t.buf and i = ref t.len in
  while !z lsr 7 <> 0 do
    Bytes.unsafe_set b !i (Char.unsafe_chr (!z land 0x7F lor 0x80));
    incr i;
    z := !z lsr 7
  done;
  Bytes.unsafe_set b !i (Char.unsafe_chr !z);
  t.len <- !i + 1

let bool t b = tag t (if b then 1 else 0)

let float t f =
  reserve t 8;
  Bytes.set_int64_le t.buf t.len (Int64.bits_of_float f);
  t.len <- t.len + 8

let raw_string t s =
  let n = String.length s in
  reserve t n;
  Bytes.unsafe_blit_string s 0 t.buf t.len n;
  t.len <- t.len + n

let string t s =
  int t (String.length s);
  raw_string t s

let rec iter_ints t = function
  | [] -> ()
  | n :: rest ->
      int t n;
      iter_ints t rest

let ints t l =
  int t (List.length l);
  iter_ints t l

let int_array t a =
  int t (Array.length a);
  for i = 0 to Array.length a - 1 do
    int t (Array.unsafe_get a i)
  done

let rec iter_arrays t = function
  | [] -> ()
  | a :: rest ->
      int_array t a;
      iter_arrays t rest

let int_arrays t l =
  int t (List.length l);
  iter_arrays t l

(* ASCII decimal without an intermediate string: digits are written
   least-significant first into place, then reversed. *)
let decimal t n =
  reserve t 20;
  let b = t.buf and i = ref t.len in
  if n < 0 then begin
    Bytes.unsafe_set b !i '-';
    incr i
  end;
  let first = !i in
  (* [abs (v mod 10)] is the digit for negative [v] too, so [min_int],
     which has no positive counterpart, needs no special case *)
  let v = ref n in
  let digit r = Char.unsafe_chr (Char.code '0' + abs r) in
  Bytes.unsafe_set b !i (digit (!v mod 10));
  incr i;
  v := !v / 10;
  while !v <> 0 do
    Bytes.unsafe_set b !i (digit (!v mod 10));
    incr i;
    v := !v / 10
  done;
  let lo = ref first and hi = ref (!i - 1) in
  while !lo < !hi do
    let c = Bytes.unsafe_get b !lo in
    Bytes.unsafe_set b !lo (Bytes.unsafe_get b !hi);
    Bytes.unsafe_set b !hi c;
    incr lo;
    decr hi
  done;
  t.len <- !i

let fnv1a t = Integrity.fnv1a t.buf 0 t.len

let crc32 t = Integrity.crc32 t.buf 0 t.len

let scratch_key = Domain.DLS.new_key (fun () -> create 4096)

let scratch () =
  let t = Domain.DLS.get scratch_key in
  t.len <- 0;
  t
