#!/bin/sh
# Stub C compiler: finds the -o argument and writes a binary there that
# exits 0 and prints nothing. The campaign-stub workload uses it so that
# cells cost process spawns and harness work, not real compilation.
out=""; prev=""
for a in "$@"; do
  if [ "$prev" = "-o" ]; then out="$a"; fi
  prev="$a"
done
printf '#!/bin/sh\nexit 0\n' > "$out"
chmod +x "$out"
exit 0
