#include <stdio.h>

int a = 1, b = 0;

int main(void) {
    if (a) {
        int c = 3, d = 5;
        b = c + d;
    }
    printf("%d", a);
    printf("%d\n", b);
    return 0;
}
