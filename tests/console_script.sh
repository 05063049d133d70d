#!/usr/bin/env bash
# Console-script checks: each line runs `betabound` as a user would and
# checks its output or its exit code.  Needs `betabound` and `python`
# on PATH; CI runs it against the installed package:
#     bash tests/console_script.sh
set -e
betabound np --g 3 --d 40
betabound beta --general 12 8197
betabound kgroup --g 12 --k 3,3,3,3,3,3,3,3,3,3,3 --a 2,2,2,2,2,2,2,2,2,2,2,2 --c 2 --full | grep -q '"order": 20552089600'
rc=0; betabound search --g 2 --d 9223372036854775808 || rc=$?; test "$rc" -eq 2
rc=0; timeout 10 betabound search --g 100000000000000000000000 --d 5 || rc=$?; test "$rc" -eq 2
betabound search --g 3 --d 40 | python -c "import json,sys; s=sys.stdin.read(); assert s == json.dumps(json.loads(s), indent=2, sort_keys=True) + '\n'"
betabound search --g 4 --d 10 | python -c "import json,sys; s=sys.stdin.read(); assert s == json.dumps(json.loads(s), indent=2, sort_keys=True) + '\n'"
test "$(betabound search --g 3 --d 60 --format csv | tail -n +2 | wc -l)" -eq "$(betabound search --g 3 --d 60 | python -c "import json,sys; print(json.load(sys.stdin)['results']['count'])")"
betabound table --max 300 | python -c "import json,sys; s=sys.stdin.read(); assert s == json.dumps(json.loads(s), indent=2, sort_keys=True) + '\n'"
betabound search --g 2 --d 24 --generalized | python -c "import json,sys; s=sys.stdin.read(); e=json.loads(s); assert s == json.dumps(e, indent=2, sort_keys=True) + '\n' and e['results']['count'] == 76"
betabound search --g 3 --d 20 --generalized | python -c "import json,sys; s=sys.stdin.read(); assert s == json.dumps(json.loads(s), indent=2, sort_keys=True) + '\n'"
betabound search --g 2 --d 12 --generalized | python -c "import json,sys; s=sys.stdin.read(); assert s == json.dumps(json.loads(s), indent=2, sort_keys=True) + '\n'"
test "$(betabound search --g 3 --d 40 --format markdown | sed -n 's/^- \([a-z_]*\): .*/\1/p' | sort)" = "$(betabound search --g 3 --d 40 | python -c "import json,sys; print('\n'.join(sorted(json.load(sys.stdin)['results'])))")"
rc=0; betabound search --g 3 --d 7 --max-c 0 || rc=$?; test "$rc" -eq 2
rc=0; timeout 5 betabound search --g 12 --d 26 --max-a 1 --max-b 1 --max-k 3 || rc=$?; test "$rc" -eq 2
timeout 10 betabound search --g 3 --d 10000000000 --generalized --max-c -1 | python -c "import json,sys; assert json.load(sys.stdin)['results']['count'] == 0"
timeout 10 betabound search --g 2 --d 10000000000000000 --max-a -1 > /dev/null
betabound type --g 4 --k 2,4,6 --a 6,6,6,6 --c 3 | python -c "import json,sys; assert json.load(sys.stdin)['results']['type']['value'] == [3, 6, 6, 90]"
betabound type --g 12 --k 2,4,6,8,10,12,2,4,6,8,10 --a 2,2,2,2,2,2,2,2,2,2,2,2 --c 2 | python -c "import json,sys; assert json.load(sys.stdin)['results']['type']['value'] == [2] * 11 + [148]"
betabound chi --g 3 --k 2,3 --a 0,0,5 --c 1 | python -c "import json,sys; assert json.load(sys.stdin)['results']['chi_pfaffian']['value'] == 0"
betabound ample --g 3 --k 2,3 --a 0,0,5 --c 1 | python -c "import json,sys; assert json.load(sys.stdin)['results']['ample']['value'] is False"
rc=0; betabound type --g 3 --k 2,3 --a 0,0,5 --c 1 || rc=$?; test "$rc" -eq 4
betabound beta --general 4 9 | python -c "import json,sys; assert json.load(sys.stdin)['results']['interval']['lower'] == {'kind': 'inverse-root', 'radicand': 9, 'degree': 4, 'display': '9^(-1/4)'}"
betabound beta --general 3 40 | python -c "import json,sys; assert json.load(sys.stdin)['results']['strictly_below'] == '1/3'"
betabound beta --g 3 --k 9,3 --a 1,1,3 --c 1 | python -c "import json,sys; f=json.load(sys.stdin)['results']['flag_bound']; assert f['order'] == [0, 1, 2] and f['chis'] == [40, 13, 4] and f['value'] == '13/40'"
rc=0; betabound beta --general 3 40 --g 3 --a 1,1,1 || rc=$?; test "$rc" -eq 2
rc=0; betabound beta --general 3 40 --c 0 || rc=$?; test "$rc" -eq 2
python -c "
import betabound as b
cls = b.DivisorClass(b.ConstructionSpace(3, (9, 3)), (1, 1, 3), 1)
try:
    b.AltForm(cls, (0, 0, 1))
except ValueError:
    pass
else:
    raise SystemExit('AltForm accepted a repeated factor index')
"
